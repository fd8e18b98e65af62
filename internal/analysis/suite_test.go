package analysis_test

import (
	"path/filepath"
	"sync"
	"testing"

	"ghostdb/internal/analysis"
	"ghostdb/internal/analysis/analysistest"
)

// fixtureConfig mirrors DefaultConfig onto the miniature module under
// testdata/src, proving the analyzers carry no hard-coded paths.
func fixtureConfig() *analysis.Config {
	return &analysis.Config{
		ModulePath:        "fixture",
		UntrustedPkgs:     []string{"fixture/untrusted", "fixture/pagecache"},
		FlashPkg:          "fixture/flash",
		DeviceType:        "Device",
		DeviceDataMethods: []string{"Read", "ReadFull", "ReadRange", "ReadMulti", "Write", "Alloc", "Free"},
		MeteredPkgs:       []string{"fixture/flash", "fixture/store", "fixture/bus"},
		BusPkg:            "fixture/bus",
		ChannelType:       "Channel",
		TransferMethods:   []string{"Transfer", "TransferBatch"},
		BusCallerPkgs:     []string{"fixture/exec"},
		ExecPkg:           "fixture/exec",
		GrantSizeMin:      8,
		TokenOwnerTypes:   []string{"Token"},
		TokenHotFields:    []string{"Dev", "Hidden"},
		SchedPkg:          "fixture/sched",
		SessionType:       "Session",
		ExclusiveMethod:   "Exclusive",
		PrefetchMethods:   []string{"SetReadAhead"},
		DocPkgs:           []string{"fixture/docpkg"},
	}
}

var (
	fixtureOnce sync.Once
	fixtureProg *analysis.Program
	fixtureErr  error
)

// fixtureProgram loads the fixture module once and shares the
// type-checked program across the per-analyzer tests.
func fixtureProgram(t *testing.T) *analysis.Program {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureProg, fixtureErr = analysis.Load(filepath.Join("testdata", "src"), fixtureConfig())
	})
	if fixtureErr != nil {
		t.Fatalf("load fixture module: %v", fixtureErr)
	}
	return fixtureProg
}

func TestTrustBoundaryFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureProgram(t), fixtureConfig(), analysis.TrustBoundary)
}

func TestBusMeterFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureProgram(t), fixtureConfig(), analysis.BusMeter)
}

func TestGrantSizeFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureProgram(t), fixtureConfig(), analysis.GrantSize)
}

func TestSlotDisciplineFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureProgram(t), fixtureConfig(), analysis.SlotDiscipline)
}

func TestPrefetchDepthFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureProgram(t), fixtureConfig(), analysis.PrefetchDepth)
}

func TestExportDocFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureProgram(t), fixtureConfig(), analysis.ExportDoc)
}

func TestWholeSuiteFixtures(t *testing.T) {
	analysistest.RunProgram(t, fixtureProgram(t), fixtureConfig(), analysis.All()...)
}

func TestByName(t *testing.T) {
	got, err := analysis.ByName(" busmeter, grantsize ")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(got) != 2 || got[0].Name != "busmeter" || got[1].Name != "grantsize" {
		t.Fatalf("ByName selected %v", got)
	}
	if all, err := analysis.ByName(""); err != nil || len(all) != len(analysis.All()) {
		t.Fatalf("empty ByName = %d analyzers, err %v", len(all), err)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestRepoIsLintClean runs the full suite over the real module: the
// same gate CI enforces through cmd/ghostdb-lint.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type check is slow")
	}
	cfg := analysis.DefaultConfig()
	prog, err := analysis.Load(filepath.Join("..", ".."), cfg)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := analysis.Run(prog, cfg, analysis.All())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

package analysis

// Config names the packages and types each rule keys on. The defaults
// describe the real GhostDB module; the fixture corpus under testdata/
// substitutes its own miniature module so the analyzers themselves stay
// free of hard-coded paths.
type Config struct {
	// ModulePath overrides the module path when no go.mod is present at
	// the load root (fixture trees).
	ModulePath string

	// UntrustedPkgs are the untrusted-side packages: hidden-data types
	// must never be mentioned there, and calls into them must never
	// carry hidden-derived arguments.
	UntrustedPkgs []string

	// FlashPkg and DeviceType identify the raw flash device; its
	// DeviceDataMethods (the data-path operations that move or remap
	// bytes) may only be called from MeteredPkgs, the storage substrate
	// whose readers and writers are what the cost accounting charges.
	FlashPkg          string
	DeviceType        string
	DeviceDataMethods []string
	MeteredPkgs       []string

	// BusPkg, ChannelType and TransferMethods identify the metered link;
	// only BusCallerPkgs may invoke a raw transfer (single or batched),
	// so no operator can move bytes across the boundary outside the
	// audited path.
	BusPkg          string
	ChannelType     string
	TransferMethods []string
	BusCallerPkgs   []string

	// ExecPkg scopes the grantsize and slotdiscipline rules to the
	// query-execution package.
	ExecPkg string
	// GrantSizeMin is the smallest constant make() size/capacity (in
	// elements) that grantsize flags inside ExecPkg; tiny fixed scratch
	// buffers below it are allowed.
	GrantSizeMin int64

	// TokenOwnerTypes are the ExecPkg types whose TokenHotFields hold
	// per-token secure state (flash device, hidden images); touching
	// those fields requires an admitted session.
	TokenOwnerTypes []string
	TokenHotFields  []string
	// SchedPkg, SessionType and ExclusiveMethod identify the admission
	// scheduler: a function literal passed to Session.Exclusive runs
	// with the token slot held.
	SchedPkg        string
	SessionType     string
	ExclusiveMethod string

	// PrefetchMethods are the method names that arm a read-ahead window
	// (the depth is their first argument); prefetchdepth requires that
	// depth to be a constant.
	PrefetchMethods []string

	// DocPkgs are the packages whose exported identifiers exportdoc
	// requires doc comments on.
	DocPkgs []string
}

// DefaultConfig returns the rule configuration for the GhostDB module
// itself.
func DefaultConfig() *Config {
	return &Config{
		UntrustedPkgs: []string{
			"ghostdb/internal/untrusted",
			"ghostdb/internal/cache",
			"ghostdb/internal/pagecache",
			"ghostdb/internal/server",
			"ghostdb/internal/metrics",
			"ghostdb/internal/obs",
		},
		FlashPkg:          "ghostdb/internal/flash",
		DeviceType:        "Device",
		DeviceDataMethods: []string{"Read", "ReadFull", "ReadRange", "ReadMulti", "Write", "Alloc", "Free"},
		MeteredPkgs: []string{
			"ghostdb/internal/flash",
			"ghostdb/internal/store",
			"ghostdb/internal/btree",
			"ghostdb/internal/bus",
		},
		BusPkg:          "ghostdb/internal/bus",
		ChannelType:     "Channel",
		TransferMethods: []string{"Transfer", "TransferBatch"},
		BusCallerPkgs: []string{
			"ghostdb/internal/untrusted",
			"ghostdb/internal/exec",
		},
		ExecPkg:         "ghostdb/internal/exec",
		GrantSizeMin:    8,
		TokenOwnerTypes: []string{"Token", "DB"},
		TokenHotFields:  []string{"Dev", "Hidden"},
		SchedPkg:        "ghostdb/internal/sched",
		SessionType:     "Session",
		ExclusiveMethod: "Exclusive",
		PrefetchMethods: []string{"SetReadAhead"},
		DocPkgs: []string{
			"ghostdb",
			"ghostdb/internal/delta",
			"ghostdb/internal/shard",
			"ghostdb/internal/analysis",
			"ghostdb/internal/analysis/analysistest",
			"ghostdb/internal/obs",
			"ghostdb/internal/pagecache",
		},
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

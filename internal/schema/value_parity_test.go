package schema

import (
	"encoding/hex"
	"math"
	"testing"
	"unsafe"
)

// A Value is four words: Kind, I (an int, or a float's IEEE bits), and
// the string header. Result rows and the result cache's byte accounting
// are sized from this.
func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

// floatParity was recorded from the Value that kept a float in its own
// float64 field, before floats moved into I: for each edge value its
// String, its on-flash encoding, and the bits of DecodeValue(encoding).
var floatParity = []struct {
	f       float64
	str     string
	enc     string
	decBits uint64
}{
	{0, "0", "8000000000000000", 0x0000000000000000},
	{math.Copysign(0, -1), "-0", "7fffffffffffffff", 0x8000000000000000},
	{math.Inf(1), "+Inf", "fff0000000000000", 0x7ff0000000000000},
	{math.Inf(-1), "-Inf", "000fffffffffffff", 0xfff0000000000000},
	{math.NaN(), "NaN", "fff8000000000001", 0x7ff8000000000001},
	{math.SmallestNonzeroFloat64, "5e-324", "8000000000000001", 0x0000000000000001},
	{-math.SmallestNonzeroFloat64, "-5e-324", "7ffffffffffffffe", 0x8000000000000001},
	{math.MaxFloat64, "1.7976931348623157e+308", "ffefffffffffffff", 0x7fefffffffffffff},
	{-math.MaxFloat64, "-1.7976931348623157e+308", "0010000000000000", 0xffefffffffffffff},
	{1.5, "1.5", "bff8000000000000", 0x3ff8000000000000},
	{-2.25, "-2.25", "3ffdffffffffffff", 0xc002000000000000},
	{0.1, "0.1", "bfb999999999999a", 0x3fb999999999999a},
	{1e21, "1e+21", "c44b1ae4d6e2ef50", 0x444b1ae4d6e2ef50},
	{30.5, "30.5", "c03e800000000000", 0x403e800000000000},
}

// floatCompare[i][j] is floatParity[i].Compare(floatParity[j]) as
// '-', '0', '+', and floatEqual[i][j] is Equal as '1'/'0', recorded
// alongside floatParity. NaN compares equal to everything, as it did.
var (
	floatCompare = []string{
		"00-+0-+-+-+---",
		"00-+0-+-+-+---",
		"++0+0+++++++++",
		"---00---------",
		"00000000000000",
		"++-+00+-+-+---",
		"---+0-0-+-+---",
		"++-+0++0++++++",
		"---+0---0-----",
		"++-+0++-+0++--",
		"---+0---+-0---",
		"++-+0++-+-+0--",
		"++-+0++-++++0+",
		"++-+0++-++++-0",
	}
	floatEqual = []string{
		"11001000000000",
		"11001000000000",
		"00101000000000",
		"00011000000000",
		"11111111111111",
		"00001100000000",
		"00001010000000",
		"00001001000000",
		"00001000100000",
		"00001000010000",
		"00001000001000",
		"00001000000100",
		"00001000000010",
		"00001000000001",
	}
)

func TestFloatValueMatchesRecordedBehaviour(t *testing.T) {
	for i, c := range floatParity {
		v := FloatVal(c.f)
		if got := v.String(); got != c.str {
			t.Errorf("case %d: String() = %q, want %q", i, got, c.str)
		}
		var b [8]byte
		if err := EncodeValue(b[:], v); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b[:]); got != c.enc {
			t.Errorf("%s: encoding %s, want %s", c.str, got, c.enc)
		}
		d, err := DecodeValue(b[:], KindFloat)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(d.Float()); d.Kind != KindFloat || got != c.decBits {
			t.Errorf("%s: decoded kind %v bits %#016x, want float %#016x", c.str, d.Kind, got, c.decBits)
		}
		for j, o := range floatParity {
			w := FloatVal(o.f)
			if got := "-0+"[v.Compare(w)+1]; got != floatCompare[i][j] {
				t.Errorf("%s.Compare(%s) = %c, want %c", c.str, o.str, got, floatCompare[i][j])
			}
			if got := v.Equal(w); got != (floatEqual[i][j] == '1') {
				t.Errorf("%s.Equal(%s) = %t", c.str, o.str, got)
			}
		}
	}
}

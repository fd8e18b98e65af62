package schema

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundtripProperty(t *testing.T) {
	intRT := func(i int64) bool {
		var buf [8]byte
		if err := EncodeValue(buf[:], IntVal(i)); err != nil {
			return false
		}
		v, err := DecodeValue(buf[:], KindInt)
		return err == nil && v.I == i
	}
	if err := quick.Check(intRT, nil); err != nil {
		t.Fatalf("int roundtrip: %v", err)
	}
	floatRT := func(f float64) bool {
		if math.IsNaN(f) {
			return true // NaN has no meaningful ordering; not generated by us
		}
		var buf [8]byte
		if err := EncodeValue(buf[:], FloatVal(f)); err != nil {
			return false
		}
		v, err := DecodeValue(buf[:], KindFloat)
		return err == nil && v.Float() == f
	}
	if err := quick.Check(floatRT, nil); err != nil {
		t.Fatalf("float roundtrip: %v", err)
	}
}

func TestEncodingOrderPreservingProperty(t *testing.T) {
	intOrd := func(a, b int64) bool {
		var ba, bb [8]byte
		_ = EncodeValue(ba[:], IntVal(a))
		_ = EncodeValue(bb[:], IntVal(b))
		return sign(bytes.Compare(ba[:], bb[:])) == sign(IntVal(a).Compare(IntVal(b)))
	}
	if err := quick.Check(intOrd, nil); err != nil {
		t.Fatalf("int order: %v", err)
	}
	floatOrd := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		var ba, bb [8]byte
		_ = EncodeValue(ba[:], FloatVal(a))
		_ = EncodeValue(bb[:], FloatVal(b))
		return sign(bytes.Compare(ba[:], bb[:])) == sign(FloatVal(a).Compare(FloatVal(b)))
	}
	if err := quick.Check(floatOrd, nil); err != nil {
		t.Fatalf("float order: %v", err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCharEncoding(t *testing.T) {
	buf := make([]byte, 10)
	if err := EncodeValue(buf, CharVal("abc")); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abc       " {
		t.Fatalf("padded = %q", buf)
	}
	v, err := DecodeValue(buf, KindChar)
	if err != nil || v.S != "abc" {
		t.Fatalf("decode = %v %v", v, err)
	}
	if err := EncodeValue(buf, CharVal(strings.Repeat("x", 11))); err == nil {
		t.Fatal("overlong string accepted")
	}
}

func TestCharOrderMatchesCompare(t *testing.T) {
	pairs := [][2]string{{"abc", "abd"}, {"a", "ab"}, {"", "a"}, {"zz", "zz"}}
	for _, p := range pairs {
		a, b := make([]byte, 5), make([]byte, 5)
		_ = EncodeValue(a, CharVal(p[0]))
		_ = EncodeValue(b, CharVal(p[1]))
		if sign(bytes.Compare(a, b)) != sign(CharVal(p[0]).Compare(CharVal(p[1]))) {
			t.Fatalf("order mismatch for %q vs %q", p[0], p[1])
		}
	}
}

func TestCompareAndEqual(t *testing.T) {
	if IntVal(3).Compare(IntVal(5)) != -1 || FloatVal(2.5).Compare(FloatVal(1)) != 1 {
		t.Fatal("numeric compare broken")
	}
	if !CharVal("x").Equal(CharVal("x")) || CharVal("x").Equal(CharVal("y")) {
		t.Fatal("char equal broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind compare did not panic")
		}
	}()
	_ = IntVal(1).Compare(CharVal("1"))
}

func TestValueString(t *testing.T) {
	if IntVal(-7).String() != "-7" || CharVal("hi").String() != "hi" {
		t.Fatal("String() broken")
	}
	if FloatVal(1.5).String() != "1.5" {
		t.Fatalf("float string = %q", FloatVal(1.5).String())
	}
	if (Value{}).String() != "<invalid>" {
		t.Fatal("invalid value string")
	}
}

func TestEncodedWidth(t *testing.T) {
	if EncodedWidth(KindInt, 0) != 8 || EncodedWidth(KindFloat, 0) != 8 {
		t.Fatal("numeric widths")
	}
	if EncodedWidth(KindChar, 17) != 17 {
		t.Fatal("char width")
	}
	if EncodedWidth(KindInvalid, 3) != 0 {
		t.Fatal("invalid width")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeValue(make([]byte, 3), KindInt); err == nil {
		t.Fatal("short int accepted")
	}
	if _, err := DecodeValue(make([]byte, 3), KindInvalid); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if err := EncodeValue(make([]byte, 3), IntVal(1)); err == nil {
		t.Fatal("short int buffer accepted")
	}
	if err := EncodeValue(make([]byte, 3), Value{}); err == nil {
		t.Fatal("invalid kind encode accepted")
	}
}

package schema

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates GhostDB column types.
type Kind int

const (
	KindInvalid Kind = iota
	KindInt          // 64-bit signed integer
	KindFloat        // 64-bit IEEE float
	KindChar         // fixed-width character string, space-padded
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindChar:
		return "char"
	}
	return "invalid"
}

// Value is a dynamically typed column value. The zero Value is invalid.
// A float keeps its IEEE 754 bits in I (read it with Float), which holds
// a Value to 32 bytes: every result row is a slice of them.
type Value struct {
	Kind Kind
	I    int64
	S    string
}

// IntVal, FloatVal and CharVal construct Values.
func IntVal(i int64) Value     { return Value{Kind: KindInt, I: i} }
func FloatVal(f float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(f))} }
func CharVal(s string) Value   { return Value{Kind: KindChar, S: s} }

// Float returns the number a KindFloat value holds.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindChar:
		return v.S
	}
	return "<invalid>"
}

// Compare orders two values of the same kind: -1, 0 or +1. Comparing
// different kinds is a programming error and panics.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		panic(fmt.Sprintf("schema: comparing %v with %v", v.Kind, o.Kind))
	}
	switch v.Kind {
	case KindInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case KindFloat:
		switch a, b := v.Float(), o.Float(); {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindChar:
		return strings.Compare(v.S, o.S)
	}
	panic("schema: comparing invalid values")
}

// Equal reports whether two values are identical in kind and content.
func (v Value) Equal(o Value) bool {
	return v.Kind == o.Kind && v.Compare(o) == 0
}

// EncodedWidth returns the fixed on-flash width of a column of this type.
func EncodedWidth(k Kind, width int) int {
	switch k {
	case KindInt, KindFloat:
		return 8
	case KindChar:
		return width
	}
	return 0
}

// EncodeValue writes an order-preserving fixed-width encoding of v into
// dst (len(dst) must equal the column's encoded width): big-endian biased
// integers, sign-flipped IEEE floats, space-padded strings. Byte-wise
// comparison of encodings matches Value.Compare, which is what the B+-tree
// relies on.
func EncodeValue(dst []byte, v Value) error {
	switch v.Kind {
	case KindInt:
		if len(dst) != 8 {
			return fmt.Errorf("schema: int needs 8 bytes, have %d", len(dst))
		}
		binary.BigEndian.PutUint64(dst, uint64(v.I)^(1<<63))
	case KindFloat:
		if len(dst) != 8 {
			return fmt.Errorf("schema: float needs 8 bytes, have %d", len(dst))
		}
		bits := uint64(v.I)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits ^= 1 << 63
		}
		binary.BigEndian.PutUint64(dst, bits)
	case KindChar:
		if len(v.S) > len(dst) {
			return fmt.Errorf("schema: string %q exceeds char(%d)", v.S, len(dst))
		}
		n := copy(dst, v.S)
		for i := n; i < len(dst); i++ {
			dst[i] = ' '
		}
	default:
		return fmt.Errorf("schema: cannot encode kind %v", v.Kind)
	}
	return nil
}

// DecodeValue reverses EncodeValue.
func DecodeValue(src []byte, k Kind) (Value, error) {
	switch k {
	case KindInt:
		if len(src) != 8 {
			return Value{}, fmt.Errorf("schema: int needs 8 bytes, have %d", len(src))
		}
		return IntVal(int64(binary.BigEndian.Uint64(src) ^ (1 << 63))), nil
	case KindFloat:
		if len(src) != 8 {
			return Value{}, fmt.Errorf("schema: float needs 8 bytes, have %d", len(src))
		}
		bits := binary.BigEndian.Uint64(src)
		if bits&(1<<63) != 0 {
			bits ^= 1 << 63
		} else {
			bits = ^bits
		}
		return Value{Kind: KindFloat, I: int64(bits)}, nil
	case KindChar:
		return CharVal(strings.TrimRight(string(src), " ")), nil
	}
	return Value{}, fmt.Errorf("schema: cannot decode kind %v", k)
}

// Row is a sequence of column values.
type Row []Value

package obs

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// KV is one attribute on an event or span.
type KV struct {
	Key string
	Val Val
}

type valKind uint8

const (
	kindNone valKind = iota
	kindString
	kindFloat
	kindInt
	kindBool
	kindDur
)

// Val is an attribute value: string, float64, int64, bool, or duration.
// The concrete representation avoids interface boxing so building
// attributes does not allocate per value.
type Val struct {
	kind valKind
	str  string
	num  float64
	i    int64
	b    bool
}

// String makes a string attribute.
func String(k, v string) KV { return KV{Key: k, Val: Val{kind: kindString, str: v}} }

// F64 makes a float attribute.
//
//waspvet:hotpath
func F64(k string, v float64) KV { return KV{Key: k, Val: Val{kind: kindFloat, num: v}} }

// Int makes an integer attribute.
//
//waspvet:hotpath
func Int(k string, v int) KV { return KV{Key: k, Val: Val{kind: kindInt, i: int64(v)}} }

// I64 makes an int64 attribute.
func I64(k string, v int64) KV { return KV{Key: k, Val: Val{kind: kindInt, i: v}} }

// Bool makes a boolean attribute.
func Bool(k string, v bool) KV { return KV{Key: k, Val: Val{kind: kindBool, b: v}} }

// Dur makes a duration attribute. It is exported to JSON as seconds and
// rendered human-readably ("12.5s") in the audit.
func Dur(k string, v time.Duration) KV { return KV{Key: k, Val: Val{kind: kindDur, i: int64(v)}} }

// IsZero reports whether the value is unset.
func (v Val) IsZero() bool { return v.kind == kindNone }

// Str returns the string value ("" for other kinds).
func (v Val) Str() string { return v.str }

// Int64 returns the integer value (0 for other kinds).
func (v Val) Int64() int64 { return v.i }

// Duration returns the duration value (0 for other kinds).
func (v Val) Duration() time.Duration {
	if v.kind != kindDur {
		return 0
	}
	return time.Duration(v.i)
}

// Text renders the value for the human-readable audit.
func (v Val) Text() string {
	switch v.kind {
	case kindString:
		return v.str
	case kindFloat:
		return formatFloat(v.num)
	case kindInt:
		return strconv.FormatInt(v.i, 10)
	case kindBool:
		return strconv.FormatBool(v.b)
	case kindDur:
		return time.Duration(v.i).String()
	default:
		return ""
	}
}

// appendJSON appends the value's JSON encoding.
func (v Val) appendJSON(b []byte) []byte {
	switch v.kind {
	case kindString:
		return appendJSONString(b, v.str)
	case kindFloat:
		return appendJSONFloat(b, v.num)
	case kindInt:
		return strconv.AppendInt(b, v.i, 10)
	case kindBool:
		return strconv.AppendBool(b, v.b)
	case kindDur:
		return appendJSONFloat(b, time.Duration(v.i).Seconds())
	default:
		return append(b, "null"...)
	}
}

// formatFloat renders a float the way every exporter does: shortest
// round-trippable decimal form, so output is stable across runs.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// appendJSONFloat appends a JSON-safe float (NaN and ±Inf are not valid
// JSON numbers; they encode as strings).
func appendJSONFloat(b []byte, f float64) []byte {
	if f != f || f > maxJSONFloat || f < -maxJSONFloat {
		return appendJSONString(b, formatFloat(f))
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

const maxJSONFloat = 1.7976931348623157e308

// appendJSONString appends a JSON string literal with the minimal escape
// set (quotes, backslash, control characters).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch r {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			if r < 0x20 {
				const hex = "0123456789abcdef"
				b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
			} else {
				b = utf8.AppendRune(b, r)
			}
		}
	}
	return append(b, '"')
}

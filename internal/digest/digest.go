// Package digest reduces outcome-like values to canonical JSON and
// SHA-256 digests. It is the single canonicalization used by the golden
// determinism harness (internal/campaign) and the campaign service
// (internal/service): a daemon-computed digest is comparable, byte for
// byte, with one computed over the in-process library path.
//
// The canonical form is the JSON that encoding/json writes for the value
// rebuilt as a tree of maps, slices and scalars: every struct becomes an
// object of its exported fields keyed by Go field name in sorted order
// (json tags and MarshalJSON methods on structs are ignored), pointers
// and interfaces are followed (nil ones become null), slices and arrays
// ([]byte included) become arrays, map keys are fmt.Sprint'ed and
// sorted, and non-finite floats (FirstDeathAt is +Inf when nobody died)
// become the strings "+Inf", "-Inf" and "NaN". A digest therefore covers
// every exported field of the value and its nested types.
//
// The encoder writes that form in one reflective walk, with one cached
// plan per type, instead of building the tree and marshaling it; the
// tests hold it byte-equal to the tree-building reference.
package digest

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Canonical returns the canonical JSON encoding of v. The result is an
// exact-size copy, since callers such as the daemon keep it.
func Canonical(v any) ([]byte, error) {
	var e encoder
	if err := e.top(v); err != nil {
		return nil, err
	}
	return bytes.Clone(e.buf), nil
}

// Sum returns the hex SHA-256 over v's canonical JSON form. It streams
// the form into the hash through a small fixed buffer, so
// Sum(v) == SumCanonical(Canonical(v)) without holding the form.
func Sum(v any) (string, error) {
	e := encoder{buf: make([]byte, 0, chunkSize), w: sha256.New()}
	if err := e.top(v); err != nil {
		return "", err
	}
	e.w.Write(e.buf)
	return hexSum(e.w), nil
}

// SumCanonical returns the digest of bytes Canonical already produced,
// for callers that need both the form and its digest.
func SumCanonical(b []byte) string {
	h := sha256.New()
	h.Write(b)
	return hexSum(h)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// chunkSize is Sum's buffer; flushAt leaves headroom so a key plus a
// scalar fits without growing it (only a longer string grows it).
const (
	chunkSize = 4096
	flushAt   = chunkSize - 512
)

// encoder appends the canonical form to buf; with w set it flushes buf
// into w whenever it fills (a hash's Write never returns an error).
type encoder struct {
	buf []byte
	w   hash.Hash
}

func (e *encoder) top(v any) error {
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return nil
	}
	rv := reflect.ValueOf(v)
	return e.value(rv, planFor(rv.Type()))
}

// plan is the cached encoding recipe of one type.
type plan struct {
	kind reflect.Kind
	// marshal marks scalar types whose encoding/json form is their own
	// (json.Marshaler, encoding.TextMarshaler, json.Number): they are
	// encoded by json.Marshal, as the reference tree does.
	marshal bool
	elem    *plan   // pointer, slice, array and map element
	fields  []field // struct exported fields, sorted by name
}

type field struct {
	key   []byte // `"Name":`
	index int
	plan  *plan
}

var (
	plans   sync.Map // reflect.Type → *plan
	plansMu sync.Mutex

	marshalerType     = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
	numberType        = reflect.TypeFor[json.Number]()
)

func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	plansMu.Lock()
	defer plansMu.Unlock()
	// Plans of recursive types point at each other, so a build publishes
	// all it made at once, after every one is complete.
	built := map[reflect.Type]*plan{}
	p := build(t, built)
	for t, q := range built {
		plans.LoadOrStore(t, q)
	}
	return p
}

func build(t reflect.Type, built map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := built[t]; ok {
		return p
	}
	p := &plan{kind: t.Kind()}
	built[t] = p
	switch p.kind {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		p.elem = build(t.Elem(), built)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			key := append(appendString(nil, f.Name), ':')
			p.fields = append(p.fields, field{key: key, index: i, plan: build(f.Type, built)})
		}
		sort.Slice(p.fields, func(i, j int) bool {
			return t.Field(p.fields[i].index).Name < t.Field(p.fields[j].index).Name
		})
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.String:
		p.marshal = t == numberType || t.Implements(marshalerType) || t.Implements(textMarshalerType)
	}
	return p
}

func (e *encoder) value(v reflect.Value, p *plan) error {
	if e.w != nil && len(e.buf) >= flushAt {
		e.w.Write(e.buf)
		e.buf = e.buf[:0]
	}
	if p.marshal {
		return e.marshal(v)
	}
	switch p.kind {
	case reflect.Pointer:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		return e.value(v.Elem(), p.elem)
	case reflect.Interface:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		v = v.Elem()
		return e.value(v, planFor(v.Type()))
	case reflect.Struct:
		e.buf = append(e.buf, '{')
		for i, f := range p.fields {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, f.key...)
			if err := e.value(v.Field(f.index), f.plan); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, '}')
	case reflect.Slice, reflect.Array:
		if p.kind == reflect.Slice && v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
		e.buf = append(e.buf, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.value(v.Index(i), p.elem); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, ']')
	case reflect.Map:
		return e.mapValue(v, p.elem)
	case reflect.Float32, reflect.Float64:
		e.buf = appendFloat(e.buf, v.Float())
	case reflect.Bool:
		e.buf = strconv.AppendBool(e.buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
	case reflect.String:
		e.buf = appendString(e.buf, v.String())
	default: // complex, chan, func: json.Marshal reports the error
		return e.marshal(v)
	}
	return nil
}

func (e *encoder) marshal(v reflect.Value) error {
	b, err := json.Marshal(v.Interface())
	if err != nil {
		return err
	}
	e.buf = append(e.buf, b...)
	return nil
}

// mapValue writes a map as an object keyed by fmt.Sprint of each key,
// in sorted order. Keys that print alike collapse to one entry, the
// last in sort order, as they do in the reference tree; nil and empty
// maps both write {}.
func (e *encoder) mapValue(v reflect.Value, elem *plan) error {
	type entry struct {
		key string
		v   reflect.Value
	}
	ents := make([]entry, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		ents = append(ents, entry{fmt.Sprint(it.Key().Interface()), it.Value()})
	}
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	e.buf = append(e.buf, '{')
	first := true
	for i, en := range ents {
		if i+1 < len(ents) && ents[i+1].key == en.key {
			continue
		}
		if !first {
			e.buf = append(e.buf, ',')
		}
		first = false
		e.buf = append(appendString(e.buf, en.key), ':')
		if err := e.value(en.v, elem); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, '}')
	return nil
}

// appendFloat writes f as encoding/json writes a float64 (ES6 number
// formatting), or as a quoted "+Inf", "-Inf" or "NaN".
func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// 1e-07 → 1e-7
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// plainASCII marks the bytes encoding/json copies into a string
// unescaped when HTML escaping is on.
var plainASCII = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString writes s quoted, escaped exactly as encoding/json does
// with HTML escaping on.
func appendString(b []byte, s string) []byte {
	i := 0
	for i < len(s) && s[i] < utf8.RuneSelf && plainASCII[s[i]] {
		i++
	}
	b = append(b, '"')
	if i == len(s) {
		return append(append(b, s...), '"')
	}
	const hexDigits = "0123456789abcdef"
	start := 0
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			if plainASCII[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default: // other control bytes, <, >, &
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

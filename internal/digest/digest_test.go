package digest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/attack"
)

// referenceCanonical is the canonicalization the streaming encoder
// replaced, kept as its oracle: rebuild the value as a tree of maps,
// slices and scalars, then let encoding/json marshal the tree.
func referenceCanonical(v any) ([]byte, error) {
	return json.Marshal(jsonSafe(reflect.ValueOf(v)))
}

// ReferenceCanonical exposes the oracle to the package's external tests.
var ReferenceCanonical = referenceCanonical

// jsonSafe rebuilds v as a tree of maps, slices and scalars that
// encoding/json accepts. Unexported struct fields are skipped, matching
// the digest contract: only the exported surface is pinned.
func jsonSafe(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return jsonSafe(v.Elem())
	case reflect.Struct:
		m := make(map[string]any, v.NumField())
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			m[t.Field(i).Name] = jsonSafe(v.Field(i))
		}
		return m
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return nil
		}
		out := make([]any, v.Len())
		for i := 0; i < v.Len(); i++ {
			out[i] = jsonSafe(v.Index(i))
		}
		return out
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			return fmt.Sprint(keys[i].Interface()) < fmt.Sprint(keys[j].Interface())
		})
		m := make(map[string]any, len(keys))
		for _, k := range keys {
			m[fmt.Sprint(k.Interface())] = jsonSafe(v.MapIndex(k))
		}
		return m
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Sprint(f)
		}
		return f
	default:
		return v.Interface()
	}
}

// checkOracle requires Canonical to match the oracle byte for byte (or
// fail with the same error) and Sum to hash exactly those bytes.
func checkOracle(t *testing.T, v any) {
	t.Helper()
	want, werr := referenceCanonical(v)
	got, gerr := Canonical(v)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("error %v, reference %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical form differs from the reference\n got %s\nwant %s", got, want)
	}
	sum, err := Sum(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := SumCanonical(want); sum != want {
		t.Fatalf("Sum %s, digest of the reference bytes %s", sum, want)
	}
}

type inner struct {
	B float64
	A string
}

type outer struct {
	Ptr    *inner
	Nil    *inner
	Slice  []float64
	NilSl  []int
	M      map[string]int
	hidden int
}

type (
	celsius   float64
	label     string
	count     int
	jsonCount int    // value-receiver MarshalJSON
	ptrCount  int    // pointer-receiver MarshalJSON: not seen through a value
	textLabel string // MarshalText
	wireNode  struct{ ID int }
)

func (c jsonCount) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"n": %d}`, int(c))), nil
}
func (c *ptrCount) MarshalJSON() ([]byte, error) { return []byte(`"ptr"`), nil }
func (l textLabel) MarshalText() ([]byte, error) { return []byte("<" + string(l) + ">"), nil }
func (w wireNode) MarshalJSON() ([]byte, error)  { return []byte(`"ignored"`), nil }
func (c celsius) MarshalJSON() ([]byte, error)   { return []byte(`"ignored"`), nil }
func (s *outer) MarshalJSON() ([]byte, error)    { return []byte(`"ignored"`), nil }
func (k count) String() string                   { return fmt.Sprintf("#%02d", int(k)) }
func (w wireNode) String() string                { return fmt.Sprint("node-", w.ID) }

type Exported struct {
	X int
	Y []byte
}

type embeds struct {
	Exported
	*inner
	inner2 `json:"tagged"`
	Z      string `json:"z,omitempty"`
}

type inner2 struct{ Q int }

type recursive struct {
	Val  int
	Next *recursive
	Kids []recursive
}

func TestCanonicalMatchesReference(t *testing.T) {
	var nilIface any
	var nilPtr *inner
	cases := map[string]any{
		"negative zero":    math.Copysign(0, -1),
		"smallest denorm":  5e-324,
		"1e-7":             1e-7,
		"1e-6":             1e-6,
		"-1e-6":            -1e-6,
		"1e20":             1e20,
		"1e21":             1e21,
		"max float":        math.MaxFloat64,
		"fraction":         []float64{0.1, 1.0 / 3, 123456789.125, -2.5e-8, 1e300},
		"non-finite":       []float64{math.Inf(1), math.Inf(-1), math.NaN()},
		"float32":          []float32{0.1, 1e-7, 3.4e38, float32(math.Inf(1)), float32(math.NaN())},
		"html":             "<a href=\"x\">&amp;</a>",
		"separators":       "line\u2028para\u2029end",
		"invalid utf8":     "ok\xffbad\xc3\x28end\xed\xa0\x80",
		"control bytes":    "\x00\x01\b\f\n\r\t\x1f\x7f\\/",
		"unicode":          "Grüße, 世界 🚀",
		"nil slice":        struct{ S []int }{},
		"empty slice":      struct{ S []int }{S: []int{}},
		"array":            [3]int8{-1, 0, 1},
		"empty array":      [0]int{},
		"bytes":            []byte("hi\x00"),
		"byte array":       [2]byte{7, 255},
		"nil pointer":      nilPtr,
		"nil interface":    struct{ I any }{I: nilIface},
		"interfaces":       []any{1, "two", 3.5, nil, &inner{A: "x"}, []any{true}},
		"int-keyed map":    map[int]string{10: "ten", 9: "nine", -1: "minus"},
		"float-keyed map":  map[float64]bool{2.5: true, math.Inf(1): false},
		"nil map":          struct{ M map[string]int }{},
		"nested map":       map[string]map[string][]int{"b": {"y": {1}}, "a": nil},
		"stringer keys":    map[count]int{3: 1, 12: 2},
		"struct keys":      map[wireNode]int{{ID: 2}: 1, {ID: 10}: 2},
		"keys print alike": map[any]int{1: 5, "1": 5, uint8(1): 5, 2: 6},
		"embedded":         embeds{Exported: Exported{X: 1, Y: []byte{2}}, inner: &inner{B: 1}, inner2: inner2{Q: 3}, Z: "z"},
		"unexported":       outer{Ptr: &inner{B: 1}, hidden: 9},
		"named scalars": struct {
			C celsius
			L label
			N count
		}{C: -0.5, L: "<l>", N: 4},
		"json marshaler": []jsonCount{1, 2},
		"ptr marshaler":  []ptrCount{1},
		"text marshaler": struct{ T textLabel }{T: "a&b"},
		"json number":    []json.Number{"12.50", "3"},
		"raw message":    json.RawMessage(`{"a":1}`),
		"struct marshal": &outer{Slice: []float64{1}},
		"window":         []attack.Window{{R: 1, D: math.Inf(1)}, {R: 0.5, D: 2e-7}},
		"recursive":      &recursive{Val: 1, Next: &recursive{Val: 2}, Kids: []recursive{{Val: 3}}},
		"integers":       []any{int8(-128), int16(math.MaxInt16), int32(math.MinInt32), int64(math.MinInt64), uint(math.MaxUint), uint8(255), uint16(1), uint32(2), uint64(math.MaxUint64), uintptr(42)},
		"bools":          []bool{true, false},
		"complex":        struct{ C complex128 }{C: 1i},
		"func": struct {
			A int
			F func()
		}{A: 1, F: func() {}},
		"chan": []chan int{nil},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) { checkOracle(t, v) })
	}
}

func TestCanonicalShape(t *testing.T) {
	v := outer{
		Ptr:   &inner{B: math.Inf(1), A: "x"},
		Slice: []float64{1, math.NaN()},
		M:     map[string]int{"b": 2, "a": 1},
	}
	v.hidden = 7 // must not influence the digest
	b, err := Canonical(v)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"+Inf"`, `"NaN"`, `"Nil":null`, `"NilSl":null`, `{"a":1,"b":2}`} {
		if !strings.Contains(s, want) {
			t.Errorf("canonical form %s missing %s", s, want)
		}
	}
	if strings.Contains(s, "hidden") {
		t.Errorf("canonical form leaked unexported field: %s", s)
	}
}

// TestSumStreamsLongForms covers forms longer than Sum's buffer,
// including single strings that overflow it.
func TestSumStreamsLongForms(t *testing.T) {
	long := strings.Repeat("é<x>", 3*chunkSize)
	v := struct {
		Rows []inner
		S    []string
	}{S: []string{long, "", long[:chunkSize-1]}}
	for i := 0; i < 2000; i++ {
		v.Rows = append(v.Rows, inner{B: float64(i) / 7, A: fmt.Sprint(i)})
	}
	checkOracle(t, v)
}

func TestSumDeterministicAndSensitive(t *testing.T) {
	a := outer{Ptr: &inner{A: "x"}, M: map[string]int{"k": 1}}
	d1, err := Sum(a)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Sum(a)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not deterministic: %s vs %s", d1, d2)
	}
	a.M["k"] = 2
	d3, err := Sum(a)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest insensitive to value change")
	}
	if len(d1) != 64 {
		t.Fatalf("want hex sha256, got %q", d1)
	}
}

type fuzzed struct {
	F   float64
	F32 float32
	S   string
	B   []byte
	I   int64
	U   uint64
	M   map[int64]string
	P   *fuzzed
	Any any
}

func FuzzCanonical(f *testing.F) {
	f.Add(0.0, float32(0), "", []byte(nil), int64(0), uint64(0))
	f.Add(math.Copysign(0, -1), float32(1e-7), "<&> \xff", []byte{0, 255}, int64(-9), uint64(1<<63))
	f.Add(1e21, float32(3.4e38), "\x00\t\"\\", []byte("x"), int64(math.MinInt64), uint64(math.MaxUint64))
	f.Add(math.Inf(-1), float32(math.NaN()), "世界", []byte{}, int64(10), uint64(9))
	f.Fuzz(func(t *testing.T, fl float64, f32 float32, s string, b []byte, i int64, u uint64) {
		v := fuzzed{F: fl, F32: f32, S: s, B: b, I: i, U: u,
			M:   map[int64]string{i: s, int64(u % 1000): string(b)},
			Any: []any{s, fl, b},
		}
		v.P = &fuzzed{S: string(b), F: float64(f32), M: map[int64]string{}}
		checkOracle(t, v)
		checkOracle(t, s)
		checkOracle(t, fl)
	})
}

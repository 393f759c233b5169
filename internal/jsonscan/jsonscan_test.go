package jsonscan

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// TestInt: Int takes exactly JSON's integers that fit the bit size, as
// json.Unmarshal into a sized integer decodes them, and fails on every
// other number.
func TestInt(t *testing.T) {
	cases := []struct {
		in   string
		bits int
		want int64
		ok   bool
	}{
		{"0", 64, 0, true},
		{"-0", 64, 0, true},
		{" \t\r\n42", 64, 42, true},
		{"-17", 64, -17, true},
		{"9223372036854775807", 64, math.MaxInt64, true},
		{"-9223372036854775808", 64, math.MinInt64, true},
		{"9223372036854775808", 64, 0, false},
		{"-9223372036854775809", 64, 0, false},
		{"99999999999999999999", 64, 0, false},
		{"2147483647", 32, math.MaxInt32, true},
		{"-2147483648", 32, math.MinInt32, true},
		{"2147483648", 32, 0, false},
		{"+1", 64, 0, false},
		{"01", 64, 0, false},
		{"-01", 64, 0, false},
		{"00", 64, 0, false},
		{"1.0", 64, 0, false},
		{"1e3", 64, 0, false},
		{"1E3", 64, 0, false},
		{"-", 64, 0, false},
		{"", 64, 0, false},
		{"x", 64, 0, false},
	}
	for _, tc := range cases {
		s := New([]byte(tc.in))
		got := s.Int(tc.bits)
		if s.OK() != tc.ok || got != tc.want {
			t.Errorf("Int(%q, %d) = %d, ok %v; want %d, ok %v", tc.in, tc.bits, got, s.OK(), tc.want, tc.ok)
		}
		if !tc.ok {
			continue
		}
		var ref int64
		if tc.bits == 32 {
			var v int32
			err := json.Unmarshal([]byte(tc.in), &v)
			ref = int64(v)
			if err != nil {
				t.Errorf("json.Unmarshal(%q): %v", tc.in, err)
			}
		} else if err := json.Unmarshal([]byte(tc.in), &ref); err != nil {
			t.Errorf("json.Unmarshal(%q): %v", tc.in, err)
		}
		if ref != got {
			t.Errorf("Int(%q) = %d, json.Unmarshal decodes %d", tc.in, got, ref)
		}
	}
}

// TestText: Text takes a string of printable ASCII without a
// backslash, returns its contents in place and fails on anything else.
func TestText(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{`"abc"`, "abc", true},
		{` "" `, "", true},
		{`"a b~!{}[]:,"`, "a b~!{}[]:,", true},
		{`"a\"b"`, "", false},
		{"\"a\\u0062\"", "", false},
		{"\"tab\there\"", "", false},
		{"\"del\x7f\"", "", false},
		{"\"\xc3\xa4\"", "", false},
		{`"open`, "", false},
		{`abc`, "", false},
	}
	for _, tc := range cases {
		s := New([]byte(tc.in))
		got := s.Text()
		if s.OK() != tc.ok || string(got) != tc.want {
			t.Errorf("Text(%q) = %q, ok %v; want %q, ok %v", tc.in, got, s.OK(), tc.want, tc.ok)
		}
	}
}

// TestSkip: Skip consumes one value, nested brackets and brackets inside
// strings included, and stops before the delimiter after a literal.
func TestSkip(t *testing.T) {
	cases := []struct {
		in   string
		rest int // bytes left after the value; -1: Skip fails
	}{
		{`"a]}\"" ,`, 2},
		{`{"a":[1,{"b":"]}"}],"c":"\\"}x`, 1},
		{`[[],[[]]] `, 1},
		{`123,`, 1},
		{`true}`, 1},
		{`null]`, 1},
		{`-1.5e3 `, 1},
		{`,`, -1},
		{`}`, -1},
		{`"open`, -1},
		{`{"a":1`, -1},
		{`"esc\`, -1},
		{``, -1},
	}
	for _, tc := range cases {
		s := New([]byte(tc.in))
		s.Skip()
		if tc.rest < 0 {
			if s.OK() {
				t.Errorf("Skip(%q) succeeded at offset %d", tc.in, s.Offset())
			}
			continue
		}
		if !s.OK() || s.Offset() != len(tc.in)-tc.rest {
			t.Errorf("Skip(%q): ok %v, offset %d; want offset %d", tc.in, s.OK(), s.Offset(), len(tc.in)-tc.rest)
		}
	}
}

// TestWalk: Object, Array, More and Key walk nested containers, empty ones
// included, and a failed scan ends every loop.
func TestWalk(t *testing.T) {
	walk := func(in string) (string, bool) {
		s := New([]byte(in))
		out := ""
		for more := s.Object(); more; more = s.More('}') {
			out += string(s.Key()) + "="
			for more := s.Array(); more; more = s.More(']') {
				out += fmt.Sprint(s.Int(64)) + ";"
			}
		}
		return out, s.End()
	}
	cases := []struct {
		in, want string
		ok       bool
	}{
		{`{}`, "", true},
		{` { "a" : [ 1 , 2 ] , "b":[] } `, "a=1;2;b=", true},
		{`{"a":[1,2],}`, "a=1;2;=", false},
		{`{"a":[1 2]}`, "a=1;", false},
		{`{"a" [1]}`, "a=", false},
		{`{"a":[1]} x`, "a=1;", false},
		{`{"a":[1]`, "a=1;", false},
		{`[]`, "", false},
		{`null`, "", false},
	}
	for _, tc := range cases {
		got, ok := walk(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("walk(%q) = %q, %v; want %q, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	s := New([]byte(`{"a":1}`))
	s.Object()
	s.Fail()
	if s.More('}') || s.Object() || s.Array() || s.OK() {
		t.Error("a failed scan went on")
	}
}

// Package jsonscan reads a strict subset of JSON in place: insignificant
// whitespace, objects and arrays, strings of printable ASCII without a
// backslash, and integers in JSON's grammar. It exists for the decoders of
// job submissions, which read the documents that the canonical graph
// encoding and the service's clients write with it and hand every other
// input, unchanged, to encoding/json. The subset therefore decides only
// which decoder runs, never what a document means: anything outside it
// (escapes, non-ASCII bytes, null, fractions, exponents, overflow) fails
// the scan.
package jsonscan

// Scanner is a cursor over one JSON text. Every method that reads a token
// first skips insignificant whitespace. The first token outside the subset
// fails the scan for good: OK turns false, the methods return zero values
// and the loops over Object/Array/More end, so a reader checks OK once, at
// the end. The cursor of a failed scan is unspecified.
type Scanner struct {
	data   []byte
	pos    int
	failed bool
}

// New returns a Scanner at the start of data.
func New(data []byte) Scanner { return Scanner{data: data} }

// OK reports whether every token so far was in the subset.
func (s *Scanner) OK() bool { return !s.failed }

// Fail fails the scan, for a token that is in the subset but not one the
// reader takes there.
func (s *Scanner) Fail() { s.failed = true }

// Offset returns the cursor: the index of the next unread byte.
func (s *Scanner) Offset() int { return s.pos }

// SkipSpace advances past insignificant whitespace.
func (s *Scanner) SkipSpace() {
	i := s.pos
	for i < len(s.data) && s.data[i] <= ' ' && (s.data[i] == ' ' || s.data[i] == '\n' || s.data[i] == '\t' || s.data[i] == '\r') {
		i++
	}
	s.pos = i
}

// End reports whether the scan is OK and only whitespace remains.
func (s *Scanner) End() bool {
	s.SkipSpace()
	return !s.failed && s.pos == len(s.data)
}

// consume reports whether c is the next token and, if it is, moves past it.
func (s *Scanner) consume(c byte) bool {
	s.SkipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// open consumes the opening bracket c and reports whether a member or an
// element follows; an empty object or array is consumed whole.
func (s *Scanner) open(c, closing byte) bool {
	if s.failed || !s.consume(c) {
		s.failed = true
		return false
	}
	return !s.consume(closing)
}

// Object consumes '{' and reports whether a member follows. Walk an object
// with
//
//	for more := s.Object(); more; more = s.More('}') { key := s.Key(); … }
func (s *Scanner) Object() bool { return s.open('{', '}') }

// Array consumes '[' and reports whether an element follows; it is walked
// as Object is, with More(']').
func (s *Scanner) Array() bool { return s.open('[', ']') }

// More consumes the comma before the next member or element and reports
// true, or the closing bracket and reports false.
func (s *Scanner) More(closing byte) bool {
	if s.failed || s.consume(',') {
		return !s.failed
	}
	if !s.consume(closing) {
		s.failed = true
	}
	return false
}

// Text consumes a string of printable ASCII (0x20–0x7e) without a
// backslash and returns its contents, a subslice of the input.
func (s *Scanner) Text() []byte {
	if s.failed || !s.consume('"') {
		s.failed = true
		return nil
	}
	data, i := s.data, s.pos
	for i < len(data) && plain[data[i]] {
		i++
	}
	if i == len(data) || data[i] != '"' {
		s.failed = true
		return nil
	}
	str := data[s.pos:i]
	s.pos = i + 1
	return str
}

// plain marks the bytes a Text string holds: printable ASCII but the quote and
// the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Key consumes an object member's key, a Text string, and the colon after
// it.
func (s *Scanner) Key() []byte {
	key := s.Text()
	if !s.consume(':') {
		s.failed = true
	}
	return key
}

// Int consumes an integer in JSON's grammar, -?(0|[1-9][0-9]*), that no
// fraction or exponent follows and that fits in a signed integer of
// bitSize bits. strconv.ParseInt would take "+1" and "007"; JSON does not.
func (s *Scanner) Int(bitSize int) int64 {
	s.SkipSpace()
	neg := s.pos < len(s.data) && s.data[s.pos] == '-'
	if neg {
		s.pos++
	}
	data, start := s.data, s.pos
	i := start
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	s.pos = i
	limit := uint64(1) << (bitSize - 1) // |min|; max is limit-1
	switch digits := i - start; {
	case s.failed, digits == 0, digits > 19: // 19 digits cannot overflow u
		s.failed = true
	case digits > 1 && data[start] == '0':
		s.failed = true
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		s.failed = true
	case neg && u <= limit:
		return -int64(u)
	case !neg && u < limit:
		return int64(u)
	default:
		s.failed = true
	}
	return 0
}

// Skip consumes one value without checking it: a string through its
// closing quote (escapes skipped), an object or array through its matching
// bracket (brackets inside strings ignored), or any other token up to the
// next delimiter. It fails only at the end of the input or on an empty
// value. What it skips is not validated, so a reader that skips must have
// the input decoded by encoding/json after all.
func (s *Scanner) Skip() {
	s.SkipSpace()
	data, i, depth := s.data, s.pos, 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if depth == 0 && i < len(data) {
				s.pos = i + 1
				return
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 { // the container around a literal closes
				s.failed = s.failed || i == s.pos
				s.pos = i
				return
			}
			if depth--; depth == 0 {
				s.pos = i + 1
				return
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				s.failed = s.failed || i == s.pos
				s.pos = i
				return
			}
		}
	}
	s.failed = true
}

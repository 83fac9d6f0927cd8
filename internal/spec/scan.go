package spec

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// The front door's request bodies are decoded by one scanner rather
// than by encoding/json: a body is validated and walked in a single
// pass over its bytes, members the caller keeps are returned as
// sub-slices of the body, and nothing is decoded through reflection.
// The scanner accepts and rejects exactly what encoding/json does —
// RFC 8259 with no byte order mark, nothing but whitespace after the
// top-level value, and at most maxDepth nested containers — and the
// callers match struct keys as encoding/json does, by bytes.EqualFold
// after unescaping.

// maxDepth is encoding/json's nesting limit: a container nested deeper
// than this is refused.
const maxDepth = 10000

// scanner walks one JSON body. Its first error is sticky: after it,
// every method is a no-op that reports nothing more to read, so a
// caller's loop ends and the caller returns err. It never recurses: the
// containers skip passes over are tracked in a bit stack, so no body
// can exhaust the goroutine stack.
type scanner struct {
	data []byte
	pos  int
	err  error
	// text is where strings with escapes are unescaped to. A string
	// returned from it stays valid when it grows: growing copies, and
	// never writes over what was returned.
	text []byte
	// objects has bit d set while the container open at depth d is an
	// object rather than an array.
	objects [maxDepth/64 + 1]uint64
}

func (s *scanner) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("spec: "+format, args...)
	}
	s.pos = len(s.data)
}

// invalid fails on the byte at s.pos, or on the end of the body.
func (s *scanner) invalid(context string) {
	if s.pos >= len(s.data) {
		s.fail("unexpected end of JSON input")
		return
	}
	s.fail("invalid character %q %s at offset %d", s.data[s.pos], context, s.pos)
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the body or after an error.
func (s *scanner) peek() byte {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return s.data[s.pos] // a compact body has no whitespace
	}
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the top-level value.
func (s *scanner) end() {
	if s.peek(); s.pos < len(s.data) {
		s.invalid("after top-level value")
	}
}

// literal consumes word (true, false or null) at s.pos.
func (s *scanner) literal(word string) {
	if end := s.pos + len(word); end > len(s.data) || string(s.data[s.pos:end]) != word {
		s.fail("invalid literal at offset %d, want %s", s.pos, word)
		return
	}
	s.pos += len(word)
}

// number consumes the number at s.pos and returns its text.
func (s *scanner) number() []byte {
	start, d := s.pos, s.data
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		s.pos = i
		s.invalid("looking for beginning of value")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i++; i >= len(d) || !isDigit(d[i]) {
			s.pos = i
			s.invalid("after decimal point in numeric literal")
			return nil
		}
		i = digits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			s.pos = i
			s.invalid("in exponent of numeric literal")
			return nil
		}
		i = digits(d, i)
	}
	s.pos = i
	return d[start:i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// plainASCII marks the bytes a string holds as they stand: ASCII other
// than a control character, the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes the string at s.pos and returns its bytes between the
// quotes, and whether they are plain: free of escapes and valid UTF-8,
// so the string's value as it stands.
func (s *scanner) str() (content []byte, plain bool) {
	d := s.data
	start := s.pos + 1
	plain = true
	for i := start; i < len(d); {
		if plainASCII[d[i]] {
			i++
			continue
		}
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], plain
		case c == '\\':
			plain = false
			if i+1 >= len(d) {
				s.pos = len(d)
				s.invalid("in string literal")
				return nil, false
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(d) || !isHex(d[k]) {
						s.pos = k
						s.invalid("in \\u hexadecimal character escape")
						return nil, false
					}
				}
				i += 6
			default:
				s.pos = i + 1
				s.invalid("in string escape code")
				return nil, false
			}
		case c < 0x20:
			s.pos = i
			s.invalid("in string literal")
			return nil, false
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && n == 1 {
				plain = false
			}
			i += n
		}
	}
	s.pos = len(d)
	s.invalid("in string literal")
	return nil, false
}

// value consumes the string at s.pos and returns its value: a sub-slice
// of the body when the string is plain, otherwise the string unescaped
// into s.text.
func (s *scanner) value() []byte {
	content, plain := s.str()
	if plain || s.err != nil {
		return content
	}
	n := len(s.text)
	s.text = unquote(s.text, content)
	return s.text[n:len(s.text):len(s.text)]
}

// unquote appends the value of a string the scanner has validated to
// dst, given the bytes between its quotes, exactly as encoding/json
// unquotes it: escapes decoded, a surrogate pair joined, and each lone
// surrogate and each byte of invalid UTF-8 replaced by U+FFFD.
func unquote(dst, content []byte) []byte {
	for r := 0; r < len(content); {
		switch c := content[r]; {
		case c == '\\':
			e := content[r+1]
			r += 2
			switch e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(content[r:])
				r += 4
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(content) && content[r] == '\\' && content[r+1] == 'u' {
						if pair := utf16.DecodeRune(rr, hex4(content[r+2:])); pair != utf8.RuneError {
							dst = utf8.AppendRune(dst, pair)
							r += 6
							continue
						}
					}
					rr = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, rr)
			default: // '"', '\\' or '/'
				dst = append(dst, e)
			}
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, n := utf8.DecodeRune(content[r:])
			dst = utf8.AppendRune(dst, rr)
			r += n
		}
	}
	return dst
}

// hex4 decodes the four hex digits that open h.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// openObject consumes the '{' at s.pos and reports whether a member
// follows.
func (s *scanner) openObject() bool {
	s.pos++
	if s.peek() == '}' {
		s.pos++
		return false
	}
	return s.err == nil
}

// key consumes a member's key and colon, leaves s.pos at the value, and
// returns the key unescaped.
func (s *scanner) key() []byte {
	if s.peek() != '"' {
		s.invalid("looking for beginning of object key string")
		return nil
	}
	k := s.value()
	s.colon()
	return k
}

// skipKey is key for a member nobody reads: it only validates the key.
func (s *scanner) skipKey() {
	if s.peek() != '"' {
		s.invalid("looking for beginning of object key string")
		return
	}
	s.str()
	s.colon()
}

func (s *scanner) colon() {
	if s.peek() != ':' {
		s.invalid("after object key")
		return
	}
	s.pos++
	s.peek()
}

// more consumes the ',' or '}' after a member's value and reports
// whether another member follows.
func (s *scanner) more() bool {
	switch s.peek() {
	case ',':
		s.pos++
		return true
	case '}':
		s.pos++
	default:
		s.invalid("after object key:value pair")
	}
	return false
}

// skip consumes one value of any shape at s.pos, nested in depth open
// containers, and returns its bytes.
func (s *scanner) skip(depth int) []byte {
	base := depth
	s.peek()
	start := s.pos
	for s.err == nil {
		// A value starts at s.pos.
		switch c := s.peek(); c {
		case '{', '[':
			if depth >= maxDepth {
				s.fail("exceeded max depth at offset %d", s.pos)
				return nil
			}
			depth++
			bit := uint64(1) << (depth % 64)
			if c == '{' {
				s.objects[depth/64] |= bit
			} else {
				s.objects[depth/64] &^= bit
			}
			s.pos++
			if close := c + 2; s.peek() != close { // '{'+2 is '}', '['+2 is ']'
				if c == '{' {
					s.skipKey()
				}
				continue
			}
			s.pos++
			depth--
		case '"':
			s.str()
		case 't':
			s.literal("true")
		case 'f':
			s.literal("false")
		case 'n':
			s.literal("null")
		default:
			s.number()
		}
		// A value ended: close containers until one holds another.
	after:
		for s.err == nil {
			if depth == base {
				return s.data[start:s.pos]
			}
			object := s.objects[depth/64]&(uint64(1)<<(depth%64)) != 0
			switch c := s.peek(); {
			case c == ',':
				s.pos++
				if object {
					s.skipKey()
				}
				break after
			case object && c == '}', !object && c == ']':
				s.pos++
				depth--
			case object:
				s.invalid("after object key:value pair")
			default:
				s.invalid("after array element")
			}
		}
	}
	return nil
}

// mistyped consumes the value at s.pos, nested in depth containers, and
// fails with a type error unless the value is itself malformed.
func (s *scanner) mistyped(depth int, field, want string) {
	off := s.pos
	v := s.skip(depth)
	if s.err == nil {
		kind := "number"
		switch v[0] {
		case '{':
			kind = "object"
		case '[':
			kind = "array"
		case '"':
			kind = "string"
		case 't', 'f':
			kind = "bool"
		}
		s.fail("cannot decode %s into %s of type %s at offset %d", kind, field, want, off)
	}
}

package spec

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
)

// The request documents the front end decodes with the scanner. Struct
// keys match case-insensitively, as encoding/json matches them, and
// unknown keys are ignored.
var (
	fieldMainHost     = []byte("mainHost")
	fieldSession      = []byte("session")
	fieldLevel        = []byte("level")
	fieldAvailability = []byte("availability")
	fieldAlpha        = []byte("alpha")
	memberNames       = [...][]byte{[]byte("name"), []byte("components"), []byte("edges"), []byte("ranking"), []byte("binding")}
)

// maxPooledKeys and maxPooledText bound the resource-key lists and the
// unescaped text an EstablishRequest keeps for reuse: an outsized
// body's are left to the collector.
const (
	maxPooledKeys = 4096
	maxPooledText = 64 << 10
)

// EstablishRequest is a decoded session request,
// {"mainHost": "H1", "session": {...}}, decoded as encoding/json
// decodes it into struct{MainHost string; Session *RawSession}. Its
// byte slices alias the body it was decoded from (see RawMember), and
// it is meant to be reused: Decode and Reset drop every reference to
// the previous body.
type EstablishRequest struct {
	// MainHost is the last string mainHost member; a null one leaves it.
	MainHost []byte
	// Session is nil if the body has no session member or its last one
	// is null; repeated session objects merge.
	Session *RawSession

	session RawSession
	text    []byte // unescaped strings; see scanner.text
}

// Decode decodes body into r in one pass, accepting and rejecting
// exactly what encoding/json does: a syntax error and a member of the
// wrong type are both errors. The session's model members and binding
// are type-checked by Catalog.Build, which decodes them on a miss (a
// hit's bytes decoded cleanly before); those of a session a later null
// drops are type-checked here.
func (r *EstablishRequest) Decode(body []byte) error {
	r.Reset()
	s := scanner{data: body, text: r.text}
	switch s.peek() {
	case '{':
		for more := s.openObject(); more; more = s.more() {
			switch key := s.key(); {
			case bytes.EqualFold(key, fieldMainHost):
				switch s.peek() {
				case '"':
					r.MainHost = s.value()
				case 'n':
					s.literal("null")
				default:
					s.mistyped(1, "mainHost", "string")
				}
			case bytes.EqualFold(key, fieldSession):
				switch s.peek() {
				case '{':
					if r.Session == nil {
						r.session.reset()
						r.Session = &r.session
					}
					r.session.object(&s, 2)
				case 'n':
					s.literal("null")
					if r.Session != nil {
						// encoding/json type-checks the members a null
						// then drops, and so refuses the body; the
						// catalog never sees them, so check them here.
						if _, err := r.session.session(); err != nil {
							s.fail("session before null: %v", err)
						}
						r.Session = nil
					}
				default:
					s.mistyped(1, "session", "object")
				}
			default:
				s.skip(1)
			}
		}
	case 'n':
		s.literal("null")
	default:
		s.mistyped(0, "establish request", "object")
	}
	s.end()
	r.text = s.text
	if s.err != nil {
		return s.err
	}
	if r.Session != nil {
		r.Session.settle()
	}
	return nil
}

// Reset drops r's contents, and with them every reference into the body
// r was decoded from.
func (r *EstablishRequest) Reset() {
	r.MainHost, r.Session = nil, nil
	r.session.reset()
	r.text = r.text[:0]
	if cap(r.text) > maxPooledText {
		r.text = nil
	}
}

// object merges the session object at s.pos, open at depth, into r.
func (r *RawSession) object(s *scanner, depth int) {
	for more := s.openObject(); more; more = s.more() {
		key := s.key()
		if m := r.member(key); m != nil {
			m.add(s.skip(depth))
			continue
		}
		switch {
		case bytes.EqualFold(key, fieldAvailability):
			resources(s, depth, &r.availability, "availability")
		case bytes.EqualFold(key, fieldAlpha):
			resources(s, depth, &r.alpha, "alpha")
		default:
			s.skip(depth)
		}
	}
}

// resources decodes an availability or alpha member, a map from
// resource to amount, into the resource keys it defines. Null empties
// it, an object adds its keys (a repeated member merges, as it does in
// a map), and each amount must be null or a number a float64 holds. The
// amounts themselves are not kept: the front end collects live
// availability over the fabric, and needs a document's only to check
// that alpha names no resource without one.
func resources(s *scanner, depth int, keys *[][]byte, field string) {
	switch s.peek() {
	case 'n':
		s.literal("null")
		*keys = (*keys)[:0]
	case '{':
		for more := s.openObject(); more; more = s.more() {
			key := s.key()
			switch c := s.peek(); {
			case c == 'n':
				s.literal("null")
			case c == '-' || isDigit(c):
				off := s.pos
				num := s.number()
				if _, err := strconv.ParseFloat(string(num), 64); s.err == nil && err != nil {
					s.fail("cannot decode number %s into %s value of type float64 at offset %d", num, field, off)
				}
			default:
				s.mistyped(depth+1, field+" value", "float64")
			}
			*keys = append(*keys, key)
		}
	default:
		s.mistyped(depth, field, "map[string]float64")
	}
}

// settle checks a complete document's alpha against its availability
// without a map: the availability keys are sorted in place and each
// alpha key is binary-searched among them.
func (r *RawSession) settle() {
	r.alphaErr = nil
	if len(r.alpha) == 0 {
		return
	}
	slices.SortFunc(r.availability, bytes.Compare)
	for _, k := range r.alpha {
		if _, found := slices.BinarySearchFunc(r.availability, k, bytes.Compare); !found {
			r.alphaErr = fmt.Errorf("spec: alpha names resource %q with no availability", k)
			return
		}
	}
}

// member returns the model member or binding key names, or nil.
func (r *RawSession) member(key []byte) *RawMember {
	for i, name := range memberNames {
		if bytes.EqualFold(key, name) {
			return r.members()[i]
		}
	}
	return nil
}

// members lists r's raw members in memberNames order.
func (r *RawSession) members() [len(memberNames)]*RawMember {
	return [...]*RawMember{&r.Name, &r.Components, &r.Edges, &r.Ranking, &r.Binding}
}

func (r *RawSession) reset() {
	for _, m := range r.members() {
		m.reset()
	}
	r.availability = resetKeys(r.availability)
	r.alpha = resetKeys(r.alpha)
	r.alphaErr = nil
}

func resetKeys(keys [][]byte) [][]byte {
	if cap(keys) > maxPooledKeys {
		return nil
	}
	clear(keys[:cap(keys)])
	return keys[:0]
}

// Decode decodes a renegotiation request into r as encoding/json
// decodes it: keys match case-insensitively, each member must be a
// string or null (which leaves the field as it is), and the last of a
// repeated key wins.
func (r *RenegotiateRequest) Decode(body []byte) error {
	s := scanner{data: body}
	switch s.peek() {
	case '{':
		for more := s.openObject(); more; more = s.more() {
			var field *string
			switch key := s.key(); {
			case bytes.EqualFold(key, fieldSession):
				field = &r.Session
			case bytes.EqualFold(key, fieldLevel):
				field = &r.Level
			default:
				s.skip(1)
				continue
			}
			switch s.peek() {
			case '"':
				*field = string(s.value())
			case 'n':
				s.literal("null")
			default:
				s.mistyped(1, "renegotiate request field", "string")
			}
		}
	case 'n':
		s.literal("null")
	default:
		s.mistyped(0, "renegotiate request", "object")
	}
	s.end()
	return s.err
}

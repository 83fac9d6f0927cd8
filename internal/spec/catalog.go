package spec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"qosres/internal/svc"
)

// In the QoS-Resource Model a service is a fixed component graph with
// its translation functions; only the binding and the availability
// snapshot change from one session to the next. A serving front end
// therefore receives the same few service models over and over, inline
// in every session document. The Catalog interns them by content: each
// distinct model is decoded, validated and built once per process, and
// every later document that carries the same bytes gets the same
// *svc.Service — which is also what keeps qrg.TemplateCache, keyed on
// that pointer, hitting.

// catalogSize bounds the models a Catalog keeps. A deployment serves a
// handful of models (the figure-9 environment has twelve); the bound
// only stops a client that invents models from growing the table.
const catalogSize = 256

// RawSession is the wire form of a Session whose model members — name,
// components, edges and ranking — are kept as the bytes received, so a
// Catalog can recognise a model it has already built without decoding
// it again. The session members decode as in Session.
type RawSession struct {
	Name         RawMember                    `json:"name"`
	Components   RawMember                    `json:"components"`
	Edges        RawMember                    `json:"edges"`
	Ranking      RawMember                    `json:"ranking"`
	Binding      map[string]map[string]string `json:"binding"`
	Availability map[string]float64           `json:"availability"`
	Alpha        map[string]float64           `json:"alpha,omitempty"`
}

// RawMember is one model member of a document as received. A key that
// occurs more than once keeps every occurrence in order: encoding/json
// decodes repeated keys into the same field one after another, merging
// them, and a Catalog must build exactly what Parse builds.
type RawMember struct {
	first json.RawMessage
	more  []json.RawMessage
}

// UnmarshalJSON records one occurrence of the member.
func (m *RawMember) UnmarshalJSON(b []byte) error {
	b = append(json.RawMessage(nil), b...)
	if m.first == nil {
		m.first = b
	} else {
		m.more = append(m.more, b)
	}
	return nil
}

// decode replays every occurrence into dst, as Parse would have.
func (m *RawMember) decode(dst any) error {
	if m.first == nil {
		return nil
	}
	if err := json.Unmarshal(m.first, dst); err != nil {
		return err
	}
	for _, b := range m.more {
		if err := json.Unmarshal(b, dst); err != nil {
			return err
		}
	}
	return nil
}

// appendKey appends the member's occurrences to key, each prefixed with
// its length and the lot with their count, so no two documents whose
// members differ share a key.
func (m *RawMember) appendKey(key []byte) []byte {
	if m.first == nil {
		return binary.AppendUvarint(key, 0)
	}
	key = binary.AppendUvarint(key, uint64(1+len(m.more)))
	key = binary.AppendUvarint(key, uint64(len(m.first)))
	key = append(key, m.first...)
	for _, b := range m.more {
		key = binary.AppendUvarint(key, uint64(len(b)))
		key = append(key, b...)
	}
	return key
}

// size bounds the bytes appendKey appends.
func (m *RawMember) size() int {
	n := 2*binary.MaxVarintLen64 + len(m.first)
	for _, b := range m.more {
		n += binary.MaxVarintLen64 + len(b)
	}
	return n
}

// modelKey is the identity of the document's model.
func (r *RawSession) modelKey() []byte {
	members := [...]*RawMember{&r.Name, &r.Components, &r.Edges, &r.Ranking}
	n := 0
	for _, m := range members {
		n += m.size()
	}
	key := make([]byte, 0, n)
	for _, m := range members {
		key = m.appendKey(key)
	}
	return key
}

// session decodes the document in full.
func (r *RawSession) session() (*Session, error) {
	s := &Session{Binding: r.Binding, Availability: r.Availability, Alpha: r.Alpha}
	for _, err := range [...]error{
		r.Name.decode(&s.Name),
		r.Components.decode(&s.Components),
		r.Edges.decode(&s.Edges),
		r.Ranking.decode(&s.Ranking),
	} {
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	return s, nil
}

// Catalog interns service models by the exact bytes of their wire
// members. It is safe for concurrent use and holds at most catalogSize
// models; storing one more evicts an arbitrary other.
type Catalog struct {
	mu       sync.RWMutex
	services map[string]*svc.Service
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{services: make(map[string]*svc.Service)}
}

// Build returns the document's service model and binding, accepting and
// rejecting exactly what Parse followed by Session.Build does. A model
// whose bytes the catalog holds is returned without being decoded; any
// other is decoded and built, and stored only if Build succeeds. The
// session members are checked on every call, hit or miss: alpha may
// only name resources that have availability.
//
// A model member that is valid JSON of the wrong type fails with its
// *json.UnmarshalTypeError wrapped, the error Parse would have returned.
func (c *Catalog) Build(doc *RawSession) (*svc.Service, svc.Binding, error) {
	key := doc.modelKey()
	c.mu.RLock()
	service := c.services[string(key)]
	c.mu.RUnlock()
	if service != nil {
		if err := checkAlpha(doc.Availability, doc.Alpha); err != nil {
			return nil, nil, err
		}
		return service, bindingOf(doc.Binding), nil
	}
	s, err := doc.session()
	if err != nil {
		return nil, nil, err
	}
	service, binding, _, err := s.Build()
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	if prior := c.services[string(key)]; prior != nil {
		// A concurrent miss stored the model first; share its pointer.
		service = prior
	} else {
		if len(c.services) >= catalogSize {
			for k := range c.services {
				delete(c.services, k)
				break
			}
		}
		c.services[string(key)] = service
	}
	c.mu.Unlock()
	return service, binding, nil
}

// Len returns the number of models the catalog holds.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.services)
}

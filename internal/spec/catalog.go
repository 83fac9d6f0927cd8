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
//
// Bindings repeat too: a deployment places each model on a few hosts,
// so the same binding bytes arrive again and again (the seed-1 figure-9
// deployment draws 24 distinct bindings in 1,024 offers). The Catalog
// interns them the same way, in a second table. The availability
// snapshot and alpha are per-session observations and are decoded and
// checked on every request.

// catalogSize bounds the models a Catalog keeps, and separately the
// bindings. A deployment serves a handful of models (the figure-9
// environment has twelve); the bound only stops a client that invents
// models or bindings from growing the tables.
const catalogSize = 256

// RawSession is the wire form of a Session whose model members — name,
// components, edges and ranking — and binding are kept as the bytes
// received, so a Catalog can recognise a model or binding it has
// already built without decoding it again. Of availability and alpha it
// keeps only the keys, to check that alpha names no resource without
// availability; the amounts are type-checked as it is decoded
// (EstablishRequest.Decode) and then dropped.
type RawSession struct {
	Name, Components, Edges, Ranking, Binding RawMember

	// availability and alpha hold every key defined since the member's
	// last null; alphaErr reports the first alpha key with no
	// availability once the document is complete.
	availability, alpha [][]byte
	alphaErr            error
}

// RawMember is one member of a document, a model member or the binding,
// as received. A key that occurs more than once keeps every occurrence
// in order: encoding/json decodes repeated keys into the same field one
// after another, merging them, and a Catalog must build exactly what
// Parse builds.
//
// Each occurrence is a sub-slice of the body the document was decoded
// from, not a copy, so a catalog hit copies nothing. A RawMember is
// therefore valid only while that body is unchanged, and nothing may
// keep one past it: the Catalog copies a member's bytes only into a key
// it stores, and decodes a member it builds into fresh values.
type RawMember struct {
	first []byte
	more  [][]byte
}

// add records one occurrence of the member.
func (m *RawMember) add(b []byte) {
	if m.first == nil {
		m.first = b
	} else {
		m.more = append(m.more, b)
	}
}

func (m *RawMember) reset() {
	m.first = nil
	clear(m.more[:cap(m.more)])
	m.more = m.more[:0]
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

// appendModelKey appends the identity of the document's model to key.
func (r *RawSession) appendModelKey(key []byte) []byte {
	for _, m := range [...]*RawMember{&r.Name, &r.Components, &r.Edges, &r.Ranking} {
		key = m.appendKey(key)
	}
	return key
}

// session decodes the document's model members and binding.
func (r *RawSession) session() (*Session, error) {
	s := &Session{}
	for _, err := range [...]error{
		r.Name.decode(&s.Name),
		r.Components.decode(&s.Components),
		r.Edges.decode(&s.Edges),
		r.Ranking.decode(&s.Ranking),
		r.Binding.decode(&s.Binding),
	} {
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	return s, nil
}

// keyBufs recycles the buffers Build assembles its lookup keys in: a map
// lookup by string(key) does not allocate, so only a stored key is
// copied. A buffer grown past maxPooledKey by an outsized document is
// left to the collector rather than pinned in the pool.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledKey = 64 << 10

// Catalog interns service models and bindings by the exact bytes of
// their wire members. It is safe for concurrent use and holds at most
// catalogSize models and catalogSize bindings; storing one more evicts
// an arbitrary other of its kind.
type Catalog struct {
	mu       sync.RWMutex
	services map[string]*svc.Service
	bindings map[string]svc.Binding
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{services: make(map[string]*svc.Service), bindings: make(map[string]svc.Binding)}
}

// Build returns the document's service model and binding, accepting and
// rejecting exactly what Parse followed by Session.Build does. A model
// whose bytes the catalog holds is returned without being decoded; any
// other is decoded and built, and stored only if Build succeeds. A
// binding is interned the same way, and the returned binding is shared
// by every document with the same binding bytes: callers must not
// modify it. Alpha is checked on every call, hit or miss: it may only
// name resources that have availability.
//
// A member that is valid JSON of the wrong type fails with its
// *json.UnmarshalTypeError wrapped, the error Parse would have returned.
func (c *Catalog) Build(doc *RawSession) (*svc.Service, svc.Binding, error) {
	buf := keyBufs.Get().(*[]byte)
	key := doc.appendModelKey((*buf)[:0])
	split := len(key)
	key = doc.Binding.appendKey(key)
	defer func() {
		if cap(key) <= maxPooledKey {
			*buf = key[:0]
			keyBufs.Put(buf)
		}
	}()
	modelKey, bindingKey := key[:split], key[split:]

	c.mu.RLock()
	service := c.services[string(modelKey)]
	binding := c.bindings[string(bindingKey)]
	c.mu.RUnlock()
	hit := service != nil && binding != nil
	if service == nil {
		s, err := doc.session()
		if err != nil {
			return nil, nil, err
		}
		var built svc.Binding
		if service, built, _, err = s.Build(); err != nil {
			return nil, nil, err
		}
		if binding == nil {
			binding = built
		}
	} else if binding == nil {
		// A known model with a new binding: decode only the binding.
		var m map[string]map[string]string
		if err := doc.Binding.decode(&m); err != nil {
			return nil, nil, fmt.Errorf("spec: %w", err)
		}
		binding = bindingOf(m)
	}
	if doc.alphaErr != nil {
		return nil, nil, doc.alphaErr
	}
	if hit {
		return service, binding, nil
	}
	c.mu.Lock()
	// A concurrent miss may have stored either first; share its value.
	service = intern(c.services, modelKey, service)
	binding = intern(c.bindings, bindingKey, binding)
	c.mu.Unlock()
	return service, binding, nil
}

// intern returns the value table holds under key, storing v there first
// if it holds none; a full table evicts an arbitrary entry to make room.
func intern[V any](table map[string]V, key []byte, v V) V {
	if prior, ok := table[string(key)]; ok {
		return prior
	}
	if len(table) >= catalogSize {
		for k := range table {
			delete(table, k)
			break
		}
	}
	table[string(key)] = v
	return v
}

// Len returns the number of models the catalog holds.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.services)
}

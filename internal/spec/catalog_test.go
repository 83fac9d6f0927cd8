package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"qosres/internal/svc"
)

// decodeRaw decodes a session document on its own, as the scanner
// decodes the session member of a request and as encoding/json decodes
// a document into a RawSession: null leaves it empty, and anything but
// an object or null is an error.
func decodeRaw(doc []byte) (*RawSession, error) {
	var r RawSession
	s := scanner{data: doc}
	switch s.peek() {
	case '{':
		r.object(&s, 1)
	case 'n':
		s.literal("null")
	default:
		s.mistyped(0, "session", "object")
	}
	if s.end(); s.err != nil {
		return nil, s.err
	}
	r.settle()
	return &r, nil
}

// rawDoc renders exampleDoc after edit as the wire form /establish
// decodes.
func rawDoc(t *testing.T, edit func(*Session)) *RawSession {
	t.Helper()
	doc, err := Parse([]byte(exampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(doc)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := decodeRaw(data)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCatalogSharesModelAcrossSessions(t *testing.T) {
	c := NewCatalog()
	a, bindingA, err := c.Build(rawDoc(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, bindingB, err := c.Build(rawDoc(t, func(s *Session) {
		s.Availability = map[string]float64{"cpu@server": 5, "net@server": 7}
		s.Alpha = map[string]float64{"cpu@server": 0.5}
		s.Binding["Player"] = map[string]string{"net": "net@edge"}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || c.Len() != 1 {
		t.Fatalf("documents differing only in session members got services %p and %p (%d stored)", a, b, c.Len())
	}
	if bindingA["Player"]["net"] != "net@server" || bindingB["Player"]["net"] != "net@edge" {
		t.Fatalf("bindings %v and %v, want each document's own", bindingA, bindingB)
	}
	// A hit still checks the session members.
	_, _, err = c.Build(rawDoc(t, func(s *Session) { s.Alpha = map[string]float64{"ghost": 0.5} }))
	if err == nil {
		t.Fatal("alpha for a resource with no availability accepted on a hit")
	}
}

func TestCatalogSeparatesModelsByContent(t *testing.T) {
	c := NewCatalog()
	a, _, err := c.Build(rawDoc(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := c.Build(rawDoc(t, func(s *Session) { s.Components[1].Table["in-lo"]["ok"]["net"] = 26 }))
	if err != nil {
		t.Fatal(err)
	}
	if a == b || c.Len() != 2 {
		t.Fatalf("documents differing in one translation entry share service %p (%d stored)", a, c.Len())
	}
}

func TestCatalogNeverStoresInvalidModel(t *testing.T) {
	c := NewCatalog()
	bad := rawDoc(t, func(s *Session) { s.Ranking = []string{"best"} })
	for i := 0; i < 2; i++ {
		if _, _, err := c.Build(bad); err == nil {
			t.Fatalf("call %d: short ranking accepted", i)
		}
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("catalog holds %d models after rejecting every document", n)
	}
	wrongType, err := decodeRaw([]byte(`{"name":"x","components":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var typeErr *json.UnmarshalTypeError
	if _, _, err := c.Build(wrongType); !errors.As(err, &typeErr) {
		t.Fatalf("mistyped member: error %v, want a wrapped *json.UnmarshalTypeError", err)
	}
}

func TestCatalogBound(t *testing.T) {
	c := NewCatalog()
	for i := 0; i <= catalogSize; i++ {
		if _, _, err := c.Build(rawDoc(t, func(s *Session) { s.Name = fmt.Sprintf("m%d", i) })); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != catalogSize {
		t.Fatalf("catalog holds %d models after %d distinct ones, bound %d", n, catalogSize+1, catalogSize)
	}
}

// TestCatalogConcurrent mixes hits, misses and rejections from eight
// goroutines; run under -race. Every goroutine must see one pointer
// per model.
func TestCatalogConcurrent(t *testing.T) {
	const models, workers, ops = 16, 8, 1000
	docs := make([]*RawSession, models+1)
	for i := 0; i < models; i++ {
		docs[i] = rawDoc(t, func(s *Session) { s.Name = fmt.Sprintf("m%d", i) })
	}
	docs[models] = rawDoc(t, func(s *Session) { s.Edges[0].To = "ghost" })

	c := NewCatalog()
	seen := make([][]*svc.Service, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen[w] = make([]*svc.Service, models)
			for i := 0; i < ops; i++ {
				k := (i*7 + w) % len(docs)
				service, _, err := c.Build(docs[k])
				if k == models {
					if err == nil {
						t.Error("invalid model accepted")
					}
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if seen[w][k] == nil {
					seen[w][k] = service
				} else if seen[w][k] != service {
					t.Errorf("model %d: two services", k)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := range seen[w] {
			if seen[w][k] != seen[0][k] {
				t.Fatalf("workers 0 and %d got different services for model %d", w, k)
			}
		}
	}
	if n := c.Len(); n != models {
		t.Fatalf("catalog holds %d models, want %d", n, models)
	}
}

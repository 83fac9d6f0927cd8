package spec

import (
	"bytes"
	"encoding/json"
	"testing"

	"qosres/internal/svc"
)

// FuzzParseBuild ensures arbitrary JSON inputs never panic the parser or
// the model builder: they must either produce a valid model or a clean
// error.
func FuzzParseBuild(f *testing.F) {
	f.Add([]byte(exampleDoc))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","components":[{"id":"a","in":{"i":{"q":1}},"out":{"o":{"q":2}},"table":{"i":{"o":{"r":1}}},"resources":["r"]}],"ranking":["o"],"availability":{"ra":10},"binding":{"a":{"r":"ra"}}}`))
	f.Add([]byte(`{"components":[{"id":""}]}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse(data)
		if err != nil {
			return
		}
		service, binding, snap, err := doc.Build()
		if err != nil {
			return
		}
		// A built model must be internally consistent.
		if err := service.Validate(); err != nil {
			t.Fatalf("Build returned invalid service: %v", err)
		}
		_ = binding
		if snap == nil {
			t.Fatal("Build returned nil snapshot without error")
		}
	})
}

// FuzzCatalogBuild holds the catalog to Parse + Build on any body: both
// accept or both reject, an accepted body yields the same model (equal
// FromModel encodings) and the same binding either way, and the same
// bytes a second time return the identical interned service.
func FuzzCatalogBuild(f *testing.F) {
	f.Add([]byte(exampleDoc))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name":"x","components":[{"id":"a","in":{"i":{"q":1}},"out":{"o":{"q":2}},"table":{"i":{"o":{"r":1}}},"resources":["r"]}],"ranking":["o"],"availability":{"ra":10},"binding":{"a":{"r":"ra"}}}`))
	// Repeated keys merge into one member in Parse; the catalog must too.
	f.Add([]byte(`{"name":"x","components":[{"id":"a","in":{"i":{"q":1}},"out":{"o":{"q":2}},"table":{"i":{"o":{"r":1}}},"resources":["r"]}],"components":[{"out":{"p":{"q":3}}}],"ranking":["o","p"]}`))
	f.Add([]byte(`{"name":"x","components":5}`))
	f.Add([]byte(`{"alpha":{"ghost":1}}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want *svc.Service
		var wantBinding svc.Binding
		doc, wantErr := Parse(data)
		if wantErr == nil {
			want, wantBinding, _, wantErr = doc.Build()
		}
		c := NewCatalog()
		build := func() (*svc.Service, svc.Binding, error) {
			var raw RawSession
			if err := json.Unmarshal(data, &raw); err != nil {
				return nil, nil, err
			}
			return c.Build(&raw)
		}
		got, gotBinding, err := build()
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("Parse+Build error %v, catalog error %v", wantErr, err)
		}
		if err != nil {
			if c.Len() != 0 {
				t.Fatalf("rejected model stored")
			}
			return
		}
		if a, b := encodeModel(t, want, wantBinding), encodeModel(t, got, gotBinding); !bytes.Equal(a, b) {
			t.Fatalf("catalog built a different model:\n%s\nParse+Build:\n%s", b, a)
		}
		again, _, err := build()
		if err != nil || again != got {
			t.Fatalf("same bytes again: service %p (err %v), first %p", again, err, got)
		}
	})
}

// encodeModel renders a model and binding with no availability.
func encodeModel(t *testing.T, service *svc.Service, binding svc.Binding) []byte {
	t.Helper()
	doc, err := FromModel(service, binding, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

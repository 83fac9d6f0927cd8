package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
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
// bytes a second time return the identical interned service and
// binding. The accepted body with one more binding occurrence appended
// keeps its service and gets a binding of its own, and with a mistyped
// binding appended is rejected as a type error.
func FuzzCatalogBuild(f *testing.F) {
	f.Add([]byte(exampleDoc))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"name":"x","components":[{"id":"a","in":{"i":{"q":1}},"out":{"o":{"q":2}},"table":{"i":{"o":{"r":1}}},"resources":["r"]}],"ranking":["o"],"availability":{"ra":10},"binding":{"a":{"r":"ra"}}}`))
	// Repeated keys merge into one member in Parse; the catalog must too.
	f.Add([]byte(`{"name":"x","components":[{"id":"a","in":{"i":{"q":1}},"out":{"o":{"q":2}},"table":{"i":{"o":{"r":1}}},"resources":["r"]}],"components":[{"out":{"p":{"q":3}}}],"ranking":["o","p"]}`))
	f.Add([]byte(`{"name":"x","components":5}`))
	f.Add([]byte(`{"alpha":{"ghost":1}}`))
	f.Add([]byte(`{"name":"x","components":[{"id":"a","in":{"i":{"q":1}},"out":{"o":{"q":2}},"table":{"i":{"o":{"r":1}}},"resources":["r"]}],"ranking":["o"],"binding":{"a":{"r":"ra"}},"binding":null}`))
	f.Add([]byte(`{"name":"x","components":[{"id":"a","in":{"i":{"q":1}},"out":{"o":{"q":2}},"table":{"i":{"o":{"r":1}}},"resources":["r"]}],"ranking":["o"],"binding":{"a":{"r":7}}}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want *svc.Service
		var wantBinding svc.Binding
		doc, wantErr := Parse(data)
		if wantErr == nil {
			want, wantBinding, _, wantErr = doc.Build()
		}
		c := NewCatalog()
		build := func(data []byte) (*svc.Service, svc.Binding, error) {
			var raw RawSession
			if err := json.Unmarshal(data, &raw); err != nil {
				return nil, nil, err
			}
			return c.Build(&raw)
		}
		got, gotBinding, err := build(data)
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
		again, againBinding, err := build(data)
		if err != nil || again != got {
			t.Fatalf("same bytes again: service %p (err %v), first %p", again, err, got)
		}
		if !sameMap(againBinding, gotBinding) {
			t.Fatal("same bytes again: a second binding map")
		}

		// An accepted body is a JSON object: close it with one more
		// binding occurrence, which Parse merges into the binding.
		withBinding := func(member string) []byte {
			body := bytes.TrimRight(data, " \t\r\n")
			body = bytes.TrimRight(body[:len(body)-1], " \t\r\n")
			sep := ","
			if body[len(body)-1] == '{' {
				sep = ""
			}
			return append(append([]byte{}, body...), sep+`"binding":`+member+`}`...)
		}
		other := withBinding(`{"fuzz-extra":{"r":"x"}}`)
		doc, wantErr = Parse(other)
		if wantErr == nil {
			want, wantBinding, _, wantErr = doc.Build()
		}
		otherService, otherBinding, err := build(other)
		if wantErr != nil || err != nil {
			t.Fatalf("another binding: Parse+Build error %v, catalog error %v", wantErr, err)
		}
		if otherService != got {
			t.Fatalf("another binding: service %p, the model's %p", otherService, got)
		}
		if sameMap(otherBinding, gotBinding) {
			t.Fatal("another binding's bytes returned the first binding")
		}
		if a, b := encodeModel(t, want, wantBinding), encodeModel(t, otherService, otherBinding); !bytes.Equal(a, b) {
			t.Fatalf("another binding: catalog built\n%s\nParse+Build:\n%s", b, a)
		}
		var typeErr *json.UnmarshalTypeError
		if _, _, err := build(withBinding(`5`)); !errors.As(err, &typeErr) {
			t.Fatalf("mistyped binding: error %v, want a wrapped *json.UnmarshalTypeError", err)
		}
	})
}

// sameMap reports whether a and b are the same map, not merely equal.
func sameMap(a, b svc.Binding) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
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

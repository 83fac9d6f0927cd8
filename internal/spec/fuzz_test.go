package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"strings"
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
			raw, err := decodeRaw(data)
			if err != nil {
				return nil, nil, err
			}
			return c.Build(raw)
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

// establishOutcome is a front end's answer to a session request: 200,
// 400 or 409, and on 200 the main host, model and binding.
type establishOutcome struct {
	status   int
	mainHost string
	service  *svc.Service
	binding  svc.Binding
}

// oracleEstablish answers body as encoding/json and Session.Build do.
func oracleEstablish(body []byte) establishOutcome {
	var req struct {
		MainHost string   `json:"mainHost"`
		Session  *Session `json:"session"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return establishOutcome{status: http.StatusBadRequest}
	}
	if req.Session == nil || req.MainHost == "" {
		return establishOutcome{status: http.StatusBadRequest}
	}
	service, binding, _, err := req.Session.Build()
	if err != nil {
		return establishOutcome{status: http.StatusConflict}
	}
	return establishOutcome{http.StatusOK, req.MainHost, service, binding}
}

// scanEstablish answers body as the front end does: the scanner, then
// the catalog.
func scanEstablish(c *Catalog, req *EstablishRequest, body []byte) establishOutcome {
	if err := req.Decode(body); err != nil {
		return establishOutcome{status: http.StatusBadRequest}
	}
	if req.Session == nil || len(req.MainHost) == 0 {
		return establishOutcome{status: http.StatusBadRequest}
	}
	service, binding, err := c.Build(req.Session)
	var typeErr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &typeErr):
		return establishOutcome{status: http.StatusBadRequest}
	case err != nil:
		return establishOutcome{status: http.StatusConflict}
	}
	return establishOutcome{http.StatusOK, string(req.MainHost), service, binding}
}

// establishSeeds are session requests at the edges of what encoding/json
// accepts. seed1 is the first offer GET /spec hands out on the seed-1
// deployment (testdata/establish_seed1.json).
func establishSeeds(seed1 []byte) []string {
	body := func(session string) string { return `{"mainHost":"H1","session":` + session + `}` }
	edit := func(old, new string) string { return body(strings.Replace(exampleDoc, old, new, 1)) }
	const avail = `"availability": {"cpu@server": 200, "net@server": 100}`
	const alpha = `"alpha": {"net@server": 0.9}`
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	return []string{
		string(seed1),
		body(exampleDoc),
		// Struct keys fold: a long s folds to s, a Kelvin sign to k.
		`{"MAINHOST":"H1","SESSION":` + exampleDoc + `}`,
		`{"main\u0048ost":"H1","\u0073ession":` + exampleDoc + `}`,
		`{"mainHost":"H1","ſession":` + exampleDoc + `}`,
		edit(`"ranking"`, `"ran\u212aing"`),
		edit(`"ranking"`, "\"ran\u212aing\""),
		edit(`"ranking"`, `"RANKING"`),
		// A repeated session merges; null resets it.
		`{"mainHost":"H1","session":` + exampleDoc + `,"session":null}`,
		`{"mainHost":"H1","session":null,"session":` + exampleDoc + `}`,
		`{"mainHost":"H1","session":` + exampleDoc + `,"session":{"availability":{"x":1},"name":"renamed"}}`,
		`{"mainHost":"H1","mainHost":null,"session":` + exampleDoc + `}`,
		`{"mainHost":"H1","session":{"components":5},"session":null,"session":` + exampleDoc + `}`,
		`{"mainHost":"H1","session":{"binding":{"a":{"r":7}}},"session":null,"session":` + exampleDoc + `}`,
		`{"mainHost":"H1","session":{"components":[{"id":"x"}]},"session":null,"session":` + exampleDoc + `}`,
		// Repeated availability merges, null resets it, a null amount
		// defines its key, and alpha must name defined keys.
		edit(avail, `"availability": {"net@server": 1}, "availability": null, "availability": {"cpu@server": 200}`),
		edit(avail, `"availability": {"cpu@server": 1}, "availability": null, "availability": {"net@server": 100}`),
		edit(avail, `"availability": {"cpu@server": 1}, "availability": {"net@server": 100}`),
		edit(avail, `"availability": {"cpu@server": 200, "net@server": null}`),
		edit(alpha, `"alpha": {"ghost": 1}`),
		edit(alpha, `"alpha": {"net@server": 1}, "alpha": null`),
		edit(alpha, `"alpha": {"net@server": null}, "ALPHA": {"cpu@server": 2}`),
		edit(avail, `"availability": {"cpu@server": 200, "net@s\u0065rver": 100}`),
		// Invalid UTF-8 in keys becomes U+FFFD, so these two name one
		// resource.
		strings.Replace(edit(avail, "\"availability\": {\"cpu@server\": 200, \"net@server\xff\": 100}"),
			`"alpha": {"net@server"`, "\"alpha\": {\"net@server\xfe\"", 1),
		// Amounts must be numbers a float64 holds.
		edit(avail, `"availability": {"cpu@server": 1e400, "net@server": 100}`),
		edit(avail, `"availability": {"cpu@server": 1e-400, "net@server": -0.0E+1}`),
		edit(avail, `"availability": {"cpu@server": 01, "net@server": 100}`),
		edit(avail, `"availability": {"cpu@server": "1", "net@server": 100}`),
		edit(avail, `"availability": {"cpu@server": true, "net@server": [1]}`),
		edit(avail, `"availability": [1]`),
		edit(alpha, `"alpha": 5`),
		// Mistyped members, anywhere.
		`{"mainHost":5,"session":` + exampleDoc + `}`,
		`{"mainHost":"H1","session":[]}`,
		edit(`"components": [`, `"components": 5, "components": [`),
		edit(`"name": "media"`, `"name": ["media"]`),
		edit(`"Encoder": {"cpu": "cpu@server"}`, `"Encoder": {"cpu": 7}`),
		`{"mainHost":"","session":` + exampleDoc + `}`,
		`{"session":` + exampleDoc + `}`,
		`{"mainHost":"H1"}`,
		`{}`, `null`, `[]`, `"x"`, ` `, ``,
		// Grammar: trailing bytes, a byte order mark, control
		// characters, bad escapes, lone surrogates, invalid UTF-8.
		body(exampleDoc) + `x`,
		body(exampleDoc) + " \n\t",
		"\xef\xbb\xbf" + body(exampleDoc),
		`{"mainHost":"H\u00311","session":` + exampleDoc + `}`,
		`{"mainHost":"\ud800","session":` + exampleDoc + `}`,
		`{"mainHost":"\udc00\ud800x\ud83d\ude00","session":` + exampleDoc + `}`,
		"{\"mainHost\":\"H\xff1\",\"session\":" + exampleDoc + "}",
		"{\"mainHost\":\"H\t1\",\"session\":" + exampleDoc + "}",
		`{"mainHost":"H\x1","session":` + exampleDoc + `}`,
		`{"mainHost":"H1","session":` + exampleDoc + `,"x":[1,2,{"a":-0.5e3,"b":[true,false,null]}],"y":{}}`,
		`{"mainHost":"H1","session":` + exampleDoc + `,"y":01}`,
		`{"mainHost":"H1","session":` + exampleDoc + `,"x":{"a" 1}}`,
		`{"mainHost":"H1","session":` + exampleDoc + `,}`,
		// Nesting: encoding/json allows 10,000 levels, the top-level
		// object included, and refuses 10,001.
		`{"pad":` + nest(9999) + `,"mainHost":"H1","session":` + exampleDoc + `}`,
		`{"pad":` + nest(10000) + `,"mainHost":"H1","session":` + exampleDoc + `}`,
		nest(10001),
		nest(10000),
	}
}

// FuzzEstablishDecode holds the scanner and the catalog to encoding/json
// and Session.Build on any session request: the same status, and on 200
// the same main host, model (equal FromModel encodings) and binding.
// Each body is then overwritten and a fresh copy decoded and built
// again, which must return the identical service and binding: nothing
// the catalog keeps may alias a body.
func FuzzEstablishDecode(f *testing.F) {
	seed1, err := os.ReadFile("testdata/establish_seed1.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range establishSeeds(seed1) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := oracleEstablish(data)
		c := NewCatalog()
		var req EstablishRequest
		body := append([]byte(nil), data...)
		got := scanEstablish(c, &req, body)
		if got.status != want.status {
			t.Fatalf("status %d, encoding/json + Build %d", got.status, want.status)
		}
		if got.status == http.StatusOK {
			if got.mainHost != want.mainHost {
				t.Fatalf("mainHost %q, encoding/json %q", got.mainHost, want.mainHost)
			}
			if a, b := encodeModel(t, want.service, want.binding), encodeModel(t, got.service, got.binding); !bytes.Equal(a, b) {
				t.Fatalf("scanner + catalog built\n%s\nencoding/json + Build:\n%s", b, a)
			}
			if !reflect.DeepEqual(got.binding, want.binding) {
				t.Fatalf("binding %v, encoding/json + Build %v", got.binding, want.binding)
			}
		}
		for i := range body {
			body[i] = '?'
		}
		again := scanEstablish(c, &req, append([]byte(nil), data...))
		if again.status != got.status || again.service != got.service || !sameMap(again.binding, got.binding) {
			t.Fatalf("after the first body was overwritten: status %d service %p, first %d %p", again.status, again.service, got.status, got.service)
		}
	})
}

// FuzzRenegotiateDecode holds RenegotiateRequest.Decode to json.Unmarshal:
// both fail or neither, and on success the fields agree.
func FuzzRenegotiateDecode(f *testing.F) {
	for _, seed := range []string{
		`{"session":"s-1","level":"Qq"}`,
		`{"SESSION":"s-1","Level":"Qq","level":null,"extra":[1,{"a":null}]}`,
		`{"ſession":"s-1","\u006cevel":"Q\u0071"}`,
		`{"session":"a","session":"b"}`,
		`{"session":5}`, `{"level":{}}`, `{"level":[]}`, `{"level":true}`,
		`null`, `[]`, `"x"`, `{}`, ``, `{"session":"s-1"} x`,
		"{\"session\":\"s-\xff\",\"level\":\"\\ud800\"}",
		"\xef\xbb\xbf{}",
		`{"session":"s-1",}`,
		`{"pad":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"pad":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got RenegotiateRequest
		wantErr := json.Unmarshal(data, &want)
		gotErr := got.Decode(data)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("Decode error %v, json.Unmarshal error %v", gotErr, wantErr)
		}
		if wantErr == nil && got != want {
			t.Fatalf("Decode %+v, json.Unmarshal %+v", got, want)
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

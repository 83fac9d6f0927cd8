// Package spec defines a JSON document format for describing one
// service session — the QoS-Resource Model of the service, the session's
// resource binding, and the observed availability — and converts it into
// the library's model types. It backs cmd/qosplan and cmd/qosserved
// (whose Catalog interns service models and bindings by content) and gives
// downstream tools a stable interchange format.
package spec

import (
	"encoding/json"
	"fmt"
	"sort"

	"qosres/internal/broker"
	"qosres/internal/qos"
	"qosres/internal/svc"
)

// Session is the top-level JSON document.
type Session struct {
	// Name of the service.
	Name string `json:"name"`
	// Components of the service.
	Components []Component `json:"components"`
	// Edges of the dependency graph.
	Edges []Edge `json:"edges"`
	// Ranking orders the sink component's output level names best-first.
	Ranking []string `json:"ranking"`
	// Binding maps component ID -> abstract resource name -> concrete
	// resource ID.
	Binding map[string]map[string]string `json:"binding"`
	// Availability maps concrete resource ID -> available amount.
	Availability map[string]float64 `json:"availability"`
	// Alpha optionally maps concrete resource ID -> availability change
	// index (default 1.0).
	Alpha map[string]float64 `json:"alpha,omitempty"`
}

// Component describes one service component.
type Component struct {
	ID string `json:"id"`
	// In/Out map level name -> QoS parameter values.
	In  map[string]map[string]float64 `json:"in"`
	Out map[string]map[string]float64 `json:"out"`
	// Table maps input level -> output level -> abstract resource
	// requirements.
	Table map[string]map[string]map[string]float64 `json:"table"`
	// Resources lists the abstract resource names the component uses.
	Resources []string `json:"resources"`
	// InOrder/OutOrder optionally fix level ordering (JSON maps are
	// unordered); both default to sorted names. OutOrder matters for
	// sink components only through Ranking, but fixing it keeps QRG node
	// layouts reproducible.
	InOrder  []string `json:"inOrder,omitempty"`
	OutOrder []string `json:"outOrder,omitempty"`
}

// Edge is one dependency edge.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// Parse decodes a JSON document.
func Parse(data []byte) (*Session, error) {
	var s Session
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	return &s, nil
}

// levelsOf converts a level map into ordered svc.Levels.
func levelsOf(m map[string]map[string]float64, order []string) ([]svc.Level, error) {
	if len(order) == 0 {
		for name := range m {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	if len(order) != len(m) {
		return nil, fmt.Errorf("level order names %d levels, component defines %d", len(order), len(m))
	}
	var out []svc.Level
	for _, name := range order {
		params, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("level order names unknown level %q", name)
		}
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ps := make([]qos.Param, 0, len(keys))
		for _, k := range keys {
			ps = append(ps, qos.P(k, params[k]))
		}
		v, err := qos.NewVector(ps...)
		if err != nil {
			return nil, err
		}
		out = append(out, svc.Level{Name: name, Vector: v})
	}
	return out, nil
}

// Build converts the document into the library model: the validated
// service, the session binding, and the availability snapshot.
func (s *Session) Build() (*svc.Service, svc.Binding, *broker.Snapshot, error) {
	var comps []*svc.Component
	for _, cs := range s.Components {
		in, err := levelsOf(cs.In, cs.InOrder)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("spec: component %s: %v", cs.ID, err)
		}
		out, err := levelsOf(cs.Out, cs.OutOrder)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("spec: component %s: %v", cs.ID, err)
		}
		table := svc.TranslationTable{}
		for inName, row := range cs.Table {
			table[inName] = map[string]qos.ResourceVector{}
			for outName, req := range row {
				table[inName][outName] = qos.NewResourceVector(req)
			}
		}
		comps = append(comps, &svc.Component{
			ID:        svc.ComponentID(cs.ID),
			In:        in,
			Out:       out,
			Translate: table.Func(),
			Resources: cs.Resources,
		})
	}
	var edges []svc.Edge
	for _, e := range s.Edges {
		edges = append(edges, svc.Edge{From: svc.ComponentID(e.From), To: svc.ComponentID(e.To)})
	}
	service, err := svc.NewService(s.Name, comps, edges, s.Ranking)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := checkAlpha(s.Availability, s.Alpha); err != nil {
		return nil, nil, nil, err
	}
	snap := &broker.Snapshot{
		Avail: qos.NewResourceVector(s.Availability),
		Alpha: map[string]float64{},
	}
	for r := range s.Availability {
		snap.Alpha[r] = 1
	}
	for r, a := range s.Alpha {
		snap.Alpha[r] = a
	}
	return service, bindingOf(s.Binding), snap, nil
}

// bindingOf converts a document binding into the library's.
func bindingOf(m map[string]map[string]string) svc.Binding {
	binding := make(svc.Binding, len(m))
	for comp, res := range m {
		binding[svc.ComponentID(comp)] = res
	}
	return binding
}

// checkAlpha rejects an alpha entry for a resource with no availability.
func checkAlpha(avail, alpha map[string]float64) error {
	for r := range alpha {
		if _, known := avail[r]; !known {
			return fmt.Errorf("spec: alpha names resource %q with no availability", r)
		}
	}
	return nil
}

// FromModel renders a library model back into a document, the inverse of
// Build (up to level ordering, which it makes explicit). The translation
// tables are reconstructed by probing the components' translation
// functions over their level cross products.
func FromModel(service *svc.Service, binding svc.Binding, snap *broker.Snapshot) (*Session, error) {
	doc := &Session{
		Name:         service.Name,
		Ranking:      append([]string(nil), service.EndToEndRanking...),
		Binding:      map[string]map[string]string{},
		Availability: map[string]float64{},
		Alpha:        map[string]float64{},
	}
	for _, cid := range service.ComponentIDs() {
		comp := service.Components[cid]
		cs := Component{
			ID:        string(cid),
			In:        map[string]map[string]float64{},
			Out:       map[string]map[string]float64{},
			Table:     map[string]map[string]map[string]float64{},
			Resources: append([]string(nil), comp.Resources...),
		}
		for _, lv := range comp.In {
			cs.InOrder = append(cs.InOrder, lv.Name)
			cs.In[lv.Name] = paramsOf(lv.Vector)
		}
		for _, lv := range comp.Out {
			cs.OutOrder = append(cs.OutOrder, lv.Name)
			cs.Out[lv.Name] = paramsOf(lv.Vector)
		}
		for _, in := range comp.In {
			for _, out := range comp.Out {
				req, ok := comp.Translate(in, out)
				if !ok {
					continue
				}
				if cs.Table[in.Name] == nil {
					cs.Table[in.Name] = map[string]map[string]float64{}
				}
				cs.Table[in.Name][out.Name] = map[string]float64(req)
			}
		}
		doc.Components = append(doc.Components, cs)
	}
	for _, e := range service.Edges {
		doc.Edges = append(doc.Edges, Edge{From: string(e.From), To: string(e.To)})
	}
	for comp, m := range binding {
		// A copy: the caller's binding may be shared by other sessions.
		cm := make(map[string]string, len(m))
		for name, res := range m {
			cm[name] = res
		}
		doc.Binding[string(comp)] = cm
	}
	if snap != nil {
		for r, a := range snap.Avail {
			doc.Availability[r] = a
		}
		for r, a := range snap.Alpha {
			doc.Alpha[r] = a
		}
	}
	return doc, nil
}

func paramsOf(v qos.Vector) map[string]float64 {
	out := map[string]float64{}
	for _, p := range v.Params() {
		out[p.Name] = p.Value
	}
	return out
}

// Encode renders the document as indented JSON.
func (s *Session) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

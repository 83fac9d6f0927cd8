// Package svc implements the component-based QoS-Resource Model of
// section 2 of the paper. A distributed service is a set of collaborating
// service components arranged in a dependency graph (a chain in the basic
// model, a DAG in the extended model of section 4.3.2). Each component
// carries a set of discrete input QoS levels, a set of discrete output QoS
// levels, and a translation function T_c(Qin, Qout) -> R mapping a level
// pair to the resource requirement vector needed to achieve it.
package svc

import (
	"fmt"
	"sort"

	"qosres/internal/qos"
)

// ComponentID identifies a service component within a service, e.g.
// "VideoSender" or "cS".
type ComponentID string

// Level is one discrete QoS level of a component's Qin or Qout: a short
// name (the paper's Qa, Qb, ...) plus the QoS vector it denotes.
type Level struct {
	Name   string
	Vector qos.Vector
}

// TranslationFunc is the component developer's "plug-in" translation
// function T_c. Given an input QoS level and a desired output QoS level it
// returns the component's resource requirement vector, keyed by the
// component's abstract resource names. ok=false means the component cannot
// produce qout from qin at all (no edge in the QRG, regardless of
// availability).
type TranslationFunc func(qin, qout Level) (req qos.ResourceVector, ok bool)

// Component is one service component: a functional unit participating in
// the service delivery (section 2.1).
type Component struct {
	// ID names the component within its service.
	ID ComponentID
	// In lists the component's acceptable input QoS levels. For the
	// source component this is the single level describing the original
	// quality of the source data.
	In []Level
	// Out lists the component's achievable output QoS levels.
	Out []Level
	// Translate is the component's translation function.
	Translate TranslationFunc
	// Resources lists the abstract resource names this component may
	// require (e.g. "cpu", "net"). It is the declared domain of the
	// requirement vectors Translate returns, used for binding and
	// validation.
	Resources []string
}

// InLevel returns the input level with the given name.
func (c *Component) InLevel(name string) (Level, bool) {
	for _, l := range c.In {
		if l.Name == name {
			return l, true
		}
	}
	return Level{}, false
}

// OutLevel returns the output level with the given name.
func (c *Component) OutLevel(name string) (Level, bool) {
	for _, l := range c.Out {
		if l.Name == name {
			return l, true
		}
	}
	return Level{}, false
}

// Validate checks structural sanity of the component definition.
func (c *Component) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("svc: component with empty ID")
	}
	if len(c.In) == 0 {
		return fmt.Errorf("svc: component %s has no input levels", c.ID)
	}
	if len(c.Out) == 0 {
		return fmt.Errorf("svc: component %s has no output levels", c.ID)
	}
	if c.Translate == nil {
		return fmt.Errorf("svc: component %s has no translation function", c.ID)
	}
	seen := make(map[string]bool)
	for _, l := range c.In {
		if l.Name == "" {
			return fmt.Errorf("svc: component %s has input level with empty name", c.ID)
		}
		if seen["in:"+l.Name] {
			return fmt.Errorf("svc: component %s has duplicate input level %s", c.ID, l.Name)
		}
		seen["in:"+l.Name] = true
	}
	for _, l := range c.Out {
		if l.Name == "" {
			return fmt.Errorf("svc: component %s has output level with empty name", c.ID)
		}
		if seen["out:"+l.Name] {
			return fmt.Errorf("svc: component %s has duplicate output level %s", c.ID, l.Name)
		}
		seen["out:"+l.Name] = true
	}
	declared := make(map[string]bool, len(c.Resources))
	for _, r := range c.Resources {
		if r == "" {
			return fmt.Errorf("svc: component %s declares empty resource name", c.ID)
		}
		if declared[r] {
			return fmt.Errorf("svc: component %s declares duplicate resource %q", c.ID, r)
		}
		declared[r] = true
	}
	// Probe the translation function over the full level cross product and
	// check that every returned requirement only names declared resources.
	for _, in := range c.In {
		for _, out := range c.Out {
			req, ok := c.Translate(in, out)
			if !ok {
				continue
			}
			if err := req.Validate(); err != nil {
				return fmt.Errorf("svc: component %s, T(%s,%s): %v", c.ID, in.Name, out.Name, err)
			}
			for name := range req {
				if !declared[name] {
					return fmt.Errorf("svc: component %s, T(%s,%s) requires undeclared resource %q", c.ID, in.Name, out.Name, name)
				}
			}
		}
	}
	return nil
}

// TranslationTable is a table-driven TranslationFunc: requirement vectors
// indexed by input level name, then output level name. Missing entries
// mean the (Qin, Qout) pair is unsupported.
type TranslationTable map[string]map[string]qos.ResourceVector

// Func returns the TranslationFunc backed by the table. The returned
// requirement is cloned so callers may mutate it freely.
func (t TranslationTable) Func() TranslationFunc {
	return func(qin, qout Level) (qos.ResourceVector, bool) {
		row, ok := t[qin.Name]
		if !ok {
			return nil, false
		}
		req, ok := row[qout.Name]
		if !ok {
			return nil, false
		}
		return req.Clone(), true
	}
}

// Scale returns a copy of the table with every requirement scaled by f.
func (t TranslationTable) Scale(f float64) TranslationTable {
	out := make(TranslationTable, len(t))
	for in, row := range t {
		nr := make(map[string]qos.ResourceVector, len(row))
		for o, req := range row {
			nr[o] = req.Scale(f)
		}
		out[in] = nr
	}
	return out
}

// Pairs returns the supported (in, out) level-name pairs in deterministic
// order, useful for tests and diagnostics.
func (t TranslationTable) Pairs() [][2]string {
	var out [][2]string
	ins := make([]string, 0, len(t))
	for in := range t {
		ins = append(ins, in)
	}
	sort.Strings(ins)
	for _, in := range ins {
		outs := make([]string, 0, len(t[in]))
		for o := range t[in] {
			outs = append(outs, o)
		}
		sort.Strings(outs)
		for _, o := range outs {
			out = append(out, [2]string{in, o})
		}
	}
	return out
}

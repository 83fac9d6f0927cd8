// Package qos defines the primitive value types of the QoS-Resource Model:
// application-level QoS vectors with discrete parameter values, and
// resource requirement vectors. Both kinds of vector are compared under a
// component-wise partial order, exactly as in section 2.2 of the paper:
// Qa <= Qb holds iff every parameter of Qa is not larger than the
// corresponding parameter of Qb, and the comparison is only defined when
// the two vectors carry the same parameter set.
package qos

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Ordering is the result of comparing two vectors under the component-wise
// partial order.
type Ordering int

const (
	// Incomparable means neither vector dominates the other.
	Incomparable Ordering = iota
	// Less means the receiver is dominated (strictly in at least one
	// parameter, never larger in any).
	Less
	// Equal means all parameters match exactly.
	Equal
	// Greater means the receiver dominates.
	Greater
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Incomparable:
		return "incomparable"
	case Less:
		return "less"
	case Equal:
		return "equal"
	case Greater:
		return "greater"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// Param is a single named QoS parameter with a discrete value.
// Examples from the paper: Frame_Rate, Image_Size,
// Number_of_Trackable_Objects, Buffering_Delay.
type Param struct {
	Name  string
	Value float64
}

// Vector is an application-level QoS vector: an ordered list of named
// parameters. Instances of a component's Qin and Qout are Vectors.
// The zero Vector is an empty vector, valid and comparable only with
// other empty vectors.
type Vector struct {
	params []Param
}

// NewVector builds a Vector from (name, value) pairs. Parameter order is
// preserved; duplicate names are rejected.
func NewVector(params ...Param) (Vector, error) {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if p.Name == "" {
			return Vector{}, fmt.Errorf("qos: empty parameter name")
		}
		if seen[p.Name] {
			return Vector{}, fmt.Errorf("qos: duplicate parameter %q", p.Name)
		}
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			return Vector{}, fmt.Errorf("qos: parameter %q has non-finite value", p.Name)
		}
		seen[p.Name] = true
	}
	v := Vector{params: make([]Param, len(params))}
	copy(v.params, params)
	return v, nil
}

// MustVector is NewVector that panics on error; intended for statically
// known literals such as workload tables.
func MustVector(params ...Param) Vector {
	v, err := NewVector(params...)
	if err != nil {
		panic(err)
	}
	return v
}

// P is shorthand for constructing a Param.
func P(name string, value float64) Param { return Param{Name: name, Value: value} }

// Len returns the number of parameters.
func (v Vector) Len() int { return len(v.params) }

// Params returns a copy of the parameter list.
func (v Vector) Params() []Param {
	out := make([]Param, len(v.params))
	copy(out, v.params)
	return out
}

// Get returns the value of the named parameter.
func (v Vector) Get(name string) (float64, bool) {
	for _, p := range v.params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return 0, false
}

// Names returns the parameter names in vector order.
func (v Vector) Names() []string {
	out := make([]string, len(v.params))
	for i, p := range v.params {
		out[i] = p.Name
	}
	return out
}

// SameParams reports whether both vectors carry exactly the same parameter
// set (ignoring order).
func (v Vector) SameParams(o Vector) bool {
	if len(v.params) != len(o.params) {
		return false
	}
	for _, p := range v.params {
		if _, ok := o.Get(p.Name); !ok {
			return false
		}
	}
	return true
}

// Compare compares two QoS vectors under the component-wise partial order.
// It returns an error when the vectors do not share the same parameter
// set, because the paper defines the order only on identical sets.
func (v Vector) Compare(o Vector) (Ordering, error) {
	if !v.SameParams(o) {
		return Incomparable, fmt.Errorf("qos: comparing vectors with different parameter sets %v vs %v", v.Names(), o.Names())
	}
	allLeq, allGeq := true, true
	for _, p := range v.params {
		ov, _ := o.Get(p.Name)
		if p.Value > ov {
			allLeq = false
		}
		if p.Value < ov {
			allGeq = false
		}
	}
	switch {
	case allLeq && allGeq:
		return Equal, nil
	case allLeq:
		return Less, nil
	case allGeq:
		return Greater, nil
	default:
		return Incomparable, nil
	}
}

// Leq reports whether v <= o under the partial order. It returns false
// (never an error) for vectors with mismatched parameter sets, matching
// the common use "does this input level satisfy that requirement".
func (v Vector) Leq(o Vector) bool {
	ord, err := v.Compare(o)
	if err != nil {
		return false
	}
	return ord == Less || ord == Equal
}

// Equal reports exact equality of parameter sets and values.
func (v Vector) Equal(o Vector) bool {
	ord, err := v.Compare(o)
	return err == nil && ord == Equal
}

// ConcatAll concatenates QoS vectors, as required for the Qin of a
// fan-in service component (section 4.3.2): the Qin of a fan-in
// component is the concatenation of the Qout of each upstream component.
// Parameter names are prefixed with the per-vector labels to keep them
// distinct; labels and vs must have equal length.
func ConcatAll(labels []string, vs []Vector) Vector {
	if len(labels) != len(vs) {
		panic(fmt.Sprintf("qos: ConcatAll with %d labels for %d vectors", len(labels), len(vs)))
	}
	var params []Param
	for i, v := range vs {
		for _, p := range v.params {
			params = append(params, Param{Name: labels[i] + "." + p.Name, Value: p.Value})
		}
	}
	out, err := NewVector(params...)
	if err != nil {
		panic(err)
	}
	return out
}

// String renders the vector as [name=value, ...].
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range v.params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%g", p.Name, p.Value)
	}
	b.WriteByte(']')
	return b.String()
}

// ResourceVector is a resource requirement (or availability) vector
// R = [r_1 ... r_M]: amounts indexed by resource name. Names may be
// abstract, component-local resource names (e.g. "cpu", "net.up") before
// binding, or concrete environment-wide resource IDs (e.g. "cpu@H2",
// "link:L7") after binding.
type ResourceVector map[string]float64

// NewResourceVector copies the given map into a ResourceVector.
func NewResourceVector(m map[string]float64) ResourceVector {
	rv := make(ResourceVector, len(m))
	for k, a := range m {
		rv[k] = a
	}
	return rv
}

// Clone returns a deep copy.
func (r ResourceVector) Clone() ResourceVector {
	out := make(ResourceVector, len(r))
	for k, a := range r {
		out[k] = a
	}
	return out
}

// Scale returns a copy with every amount multiplied by f. It is used to
// build the paper's "fat" sessions, whose requirement is N times the base
// requirement.
func (r ResourceVector) Scale(f float64) ResourceVector {
	out := make(ResourceVector, len(r))
	for k, a := range r {
		out[k] = a * f
	}
	return out
}

// Add returns the component-wise sum of r and o; resources present in
// only one vector keep their single value.
func (r ResourceVector) Add(o ResourceVector) ResourceVector {
	out := r.Clone()
	for k, a := range o {
		out[k] += a
	}
	return out
}

// Leq reports whether r <= o for every resource named in r. Resources
// missing from o are treated as availability zero, so any positive
// requirement against them fails.
func (r ResourceVector) Leq(o ResourceVector) bool {
	for k, need := range r {
		if need > o[k] {
			return false
		}
	}
	return true
}

// SameResources reports whether both vectors name exactly the same
// resource set, the precondition the paper places on comparing two
// resource requirement vectors.
func (r ResourceVector) SameResources(o ResourceVector) bool {
	if len(r) != len(o) {
		return false
	}
	for k := range r {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// Compare compares two resource vectors under the component-wise partial
// order; an error is returned when the resource sets differ.
func (r ResourceVector) Compare(o ResourceVector) (Ordering, error) {
	if !r.SameResources(o) {
		return Incomparable, fmt.Errorf("qos: comparing resource vectors with different resource sets")
	}
	allLeq, allGeq := true, true
	for k, a := range r {
		b := o[k]
		if a > b {
			allLeq = false
		}
		if a < b {
			allGeq = false
		}
	}
	switch {
	case allLeq && allGeq:
		return Equal, nil
	case allLeq:
		return Less, nil
	case allGeq:
		return Greater, nil
	default:
		return Incomparable, nil
	}
}

// Names returns the resource names in sorted order.
func (r ResourceVector) Names() []string {
	out := make([]string, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the vector deterministically, sorted by resource name.
func (r ResourceVector) String() string {
	names := r.Names()
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%g", k, r[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Validate checks that all amounts are finite and non-negative.
func (r ResourceVector) Validate() error {
	for k, a := range r {
		if k == "" {
			return fmt.Errorf("qos: empty resource name")
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("qos: resource %q has non-finite amount", k)
		}
		if a < 0 {
			return fmt.Errorf("qos: resource %q has negative amount %g", k, a)
		}
	}
	return nil
}

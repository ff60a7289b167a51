package ssd

import (
	"fmt"
	"strings"
)

// This file is the central policy registry. Each pluggable policy
// domain — GC victim selection (gcvictim.go), cache replacement
// (cachepolicy.go), plane allocation (alloc.go), plus the constrained
// interface/flash-type enums (params.go) — declares one table in its
// own file; the policyDomain built from that table then owns the
// name↔value mapping consumed everywhere else: DeviceParams.Validate,
// the JSON codec, the ssdconf.Space categorical dimensions and the CLI
// flag help all derive from it. Adding a policy means appending one
// table row (and its implementation) in one file.

// policyEntry is one row of a domain table: the canonical wire name,
// a one-line description for CLI help, and the constructor invoked
// when a device using the policy is built. T is the domain's policy
// interface; pure enums (Interface, FlashType) use struct{} and leave
// make nil.
type policyEntry[T any] struct {
	name string
	doc  string
	make func(p *DeviceParams) T
}

// domainOf derives the name↔value registry from a domain table. The
// table's index order defines the stable wire value: row i is enum
// value i in JSON, in the ssdconf grid, and in one-hot encodings.
func domainOf[T any](label string, table []policyEntry[T]) *policyDomain {
	names := make([]string, len(table))
	docs := make([]string, len(table))
	for i, e := range table {
		names[i], docs[i] = e.name, e.doc
	}
	return newPolicyDomain(label, names, docs)
}

// policyDomain owns one policy domain's name↔value mapping. Names
// match without regard to case: "nvme", "NVMe" and "NVME" all parse to
// NVMe, and name always returns the canonical spelling.
type policyDomain struct {
	label string   // human label used in error messages, e.g. "gc policy"
	names []string // value -> canonical name; dense from 0
	docs  []string // value -> one-line description
}

// newPolicyDomain builds a domain from its names. The tables are
// package literals of 1–256 distinct, non-empty names;
// TestPolicyRegistryRoundTrips pins that for every table. It panics if
// two names differ only in case, as parse could not tell them apart.
func newPolicyDomain(label string, names, docs []string) *policyDomain {
	d := &policyDomain{label: label, names: names, docs: docs}
	for i, n := range names {
		if v, _ := d.parse(n); int(v) != i {
			panic(fmt.Sprintf("ssd: %s names %q and %q differ only in case", label, names[v], n))
		}
	}
	return d
}

func (d *policyDomain) valid(v uint8) bool { return int(v) < len(d.names) }

func (d *policyDomain) name(v uint8) string {
	if !d.valid(v) {
		return fmt.Sprintf("%s(%d)", d.label, v)
	}
	return d.names[v]
}

func (d *policyDomain) parse(s string) (uint8, error) {
	for i, n := range d.names {
		if strings.EqualFold(s, n) {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("ssd: unknown %s %q (valid: %s)", d.label, s, strings.Join(d.names, ", "))
}

// allNames returns the value-ordered name list (a fresh copy, so
// callers such as ssdconf can keep it without aliasing the registry).
func (d *policyDomain) allNames() []string {
	return append([]string(nil), d.names...)
}

// describe renders "name (doc), ..." for CLI flag help.
func (d *policyDomain) describe() string {
	var b strings.Builder
	for i, n := range d.names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n)
		if d.docs[i] != "" {
			b.WriteString(" (")
			b.WriteString(d.docs[i])
			b.WriteString(")")
		}
	}
	return b.String()
}

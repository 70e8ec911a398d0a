// Package drc is a static design-rule-check engine for the safety flow:
// it runs a registry of rules over a (Netlist, ZoneSet, Worksheet)
// triple without simulating a single cycle and emits structured,
// deterministically ordered diagnostics.
//
// The paper's flow assumes the synthesized netlist and the FMEA
// spreadsheet are internally consistent before injection ever runs —
// commercial EDA lint and the TÜV assessor enforce that off-stage. This
// package is the in-repo equivalent: the cheap pre-simulation gate that
// catches zone coverage gaps, DC claims above the IEC 61508 technique
// maxima, FIT non-conservation and diagnostic logic that can never
// fire, before a campaign spends a million cycles discovering them.
//
// Rules are grouped in three layers:
//
//   - DRC-Nxxx: netlist structure (cycles, floating or multiply-driven
//     nets, registers that can never load, dead gates, clock/reset nets
//     entering data cones);
//   - DRC-Zxxx: sensible-zone consistency (FIT-leaking unowned gates,
//     unreachable observation points, diagnostics that can never fire,
//     correlated zone pairs, diagnostic-only logic share);
//   - DRC-Wxxx: FMEA worksheet / norm arithmetic (DDF claims above the
//     technique maxima, out-of-range factors, FIT conservation against
//     the netlist composition, zone cross-references, λ-column sums).
package drc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fit"
	"repro/internal/fmea"
	"repro/internal/netlist"
	"repro/internal/zones"
)

// Severity grades a finding.
type Severity uint8

// Severities, least severe first so they order and compare naturally.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = [...]string{"info", "warn", "error"}

func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// ParseSeverity parses "info", "warn"/"warning" or "error".
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("drc: unknown severity %q (want info, warn or error)", s)
}

// Loc pins a finding to a design location. All fields are optional;
// empty fields are omitted from renderings.
type Loc struct {
	Block string `json:"block,omitempty"` // hierarchical block path
	Net   string `json:"net,omitempty"`
	Gate  string `json:"gate,omitempty"` // "g12(AND)"
	FF    string `json:"ff,omitempty"`
	Zone  string `json:"zone,omitempty"`
	Obs   string `json:"obs,omitempty"`
	Row   int    `json:"row,omitempty"` // 1-based worksheet row, 0 = none
}

// String renders the location as a compact path.
func (l Loc) String() string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+":"+v)
		}
	}
	add("block", l.Block)
	add("net", l.Net)
	add("gate", l.Gate)
	add("ff", l.FF)
	add("zone", l.Zone)
	add("obs", l.Obs)
	if l.Row > 0 {
		parts = append(parts, fmt.Sprintf("row:%d", l.Row))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// Finding is one diagnostic.
type Finding struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"-"`
	// SeverityName is the JSON form of Severity.
	SeverityName string `json:"severity"`
	Loc          Loc    `json:"loc"`
	Message      string `json:"message"`
	Hint         string `json:"hint,omitempty"`
}

// Layer names the input a rule needs.
type Layer uint8

// Rule layers.
const (
	LayerNetlist Layer = iota
	LayerZones
	LayerWorksheet
)

func (l Layer) String() string {
	switch l {
	case LayerNetlist:
		return "netlist"
	case LayerZones:
		return "zones"
	default:
		return "worksheet"
	}
}

// Rule is one registered check.
type Rule struct {
	ID       string
	Severity Severity // default severity of this rule's findings
	Layer    Layer
	Title    string
	// NeedsZones / NeedsRates mark extra inputs beyond the rule's layer
	// (worksheet rules cross-referencing the zone analysis or the rate
	// calibration). A rule whose inputs are missing is skipped.
	NeedsZones bool
	NeedsRates bool
	check      func(*ctx)
}

// ctx is the per-run rule context.
type ctx struct {
	in   Input
	cfg  Config
	rule *Rule
	out  []Finding
}

// report emits a finding at the rule's default severity.
func (c *ctx) report(loc Loc, msg, hint string) {
	c.reportSev(c.rule.Severity, loc, msg, hint)
}

func (c *ctx) reportSev(sev Severity, loc Loc, msg, hint string) {
	c.out = append(c.out, Finding{
		Rule: c.rule.ID, Severity: sev, SeverityName: sev.String(),
		Loc: loc, Message: msg, Hint: hint,
	})
}

// Input is the triple the engine checks. Netlist is required; Analysis
// and Worksheet are optional — rules needing a missing layer are
// recorded as skipped, not failed.
type Input struct {
	Netlist   *netlist.Netlist
	Analysis  *zones.Analysis
	Worksheet *fmea.Worksheet
	// Rates is the elementary-rate calibration used by the FIT
	// conservation rule; nil skips DRC-W003.
	Rates *fit.Rates
}

// Config tunes thresholds and selects rules.
type Config struct {
	// CorrelationJaccard is the shared-gate Jaccard index above which a
	// register-zone pair is flagged as wide-fault correlated (DRC-Z004).
	CorrelationJaccard float64
	// FITTolerance is the relative deficit tolerated by the FIT
	// conservation check (DRC-W003).
	FITTolerance float64
	// ClockResetNames are substrings (matched case-insensitively against
	// net name tokens) identifying clock/reset distribution nets
	// (DRC-N006).
	ClockResetNames []string
	// MaxPerRule caps findings emitted per rule (0 = unlimited); the
	// overflow is summarized in one extra info finding.
	MaxPerRule int
	// Rules, when non-empty, runs only the listed rule IDs. Skip drops
	// the listed IDs. Skip wins over Rules.
	Rules []string
	Skip  []string
}

// DefaultConfig returns the calibrated thresholds.
func DefaultConfig() Config {
	return Config{
		CorrelationJaccard: 0.95,
		FITTolerance:       0.02,
		ClockResetNames:    []string{"clk", "clock", "rst", "reset"},
		MaxPerRule:         25,
	}
}

// Result is one engine run.
type Result struct {
	Design   string    `json:"design"`
	Findings []Finding `json:"findings"`
	// Ran and Skipped list rule IDs by execution status (skipped =
	// deselected or missing input layer).
	Ran     []string `json:"ran"`
	Skipped []string `json:"skipped,omitempty"`
}

// Count returns the number of findings at exactly the given severity.
func (r *Result) Count(sev Severity) int {
	n := 0
	for i := range r.Findings {
		if r.Findings[i].Severity == sev {
			n++
		}
	}
	return n
}

// CountAtLeast returns the number of findings at or above the severity.
func (r *Result) CountAtLeast(sev Severity) int {
	n := 0
	for i := range r.Findings {
		if r.Findings[i].Severity >= sev {
			n++
		}
	}
	return n
}

// Summary is a one-line severity tally.
func (r *Result) Summary() string {
	return fmt.Sprintf("%d error, %d warn, %d info (%d rules ran, %d skipped)",
		r.Count(Error), r.Count(Warning), r.Count(Info), len(r.Ran), len(r.Skipped))
}

// Registry returns the built-in rules sorted by ID.
func Registry() []Rule {
	rules := make([]Rule, 0, len(registry))
	rules = append(rules, registry...)
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID }) //det:order IDs unique (register panics on duplicates)
	return rules
}

// registry is assembled by the rules_*.go init functions.
var registry []Rule

func register(r Rule) {
	registry = append(registry, r)
}

// Run executes the selected rules over the input. The finding order is
// deterministic: rules execute in ID order and each rule emits findings
// in a structure-derived order, so equal inputs yield byte-equal
// renderings.
func Run(in Input, cfg Config) (*Result, error) {
	if in.Netlist == nil {
		return nil, fmt.Errorf("drc: nil netlist")
	}
	if cfg.CorrelationJaccard <= 0 {
		cfg.CorrelationJaccard = DefaultConfig().CorrelationJaccard
	}
	if cfg.FITTolerance <= 0 {
		cfg.FITTolerance = DefaultConfig().FITTolerance
	}
	if len(cfg.ClockResetNames) == 0 {
		cfg.ClockResetNames = DefaultConfig().ClockResetNames
	}
	only := stringSet(cfg.Rules)
	skip := stringSet(cfg.Skip)
	known := stringSet(nil)
	for _, r := range Registry() {
		known[r.ID] = true
	}
	for _, id := range append(append([]string(nil), cfg.Rules...), cfg.Skip...) {
		if !known[id] {
			return nil, fmt.Errorf("drc: unknown rule %q", id)
		}
	}

	res := &Result{Design: in.Netlist.Name}
	for _, r := range Registry() {
		r := r
		if (len(only) > 0 && !only[r.ID]) || skip[r.ID] {
			res.Skipped = append(res.Skipped, r.ID)
			continue
		}
		if ((r.Layer == LayerZones || r.NeedsZones) && in.Analysis == nil) ||
			(r.Layer == LayerWorksheet && in.Worksheet == nil) ||
			(r.NeedsRates && in.Rates == nil) {
			res.Skipped = append(res.Skipped, r.ID)
			continue
		}
		c := &ctx{in: in, cfg: cfg, rule: &r}
		r.check(c)
		if cfg.MaxPerRule > 0 && len(c.out) > cfg.MaxPerRule {
			dropped := len(c.out) - cfg.MaxPerRule
			c.out = c.out[:cfg.MaxPerRule]
			c.reportSev(Info, Loc{}, fmt.Sprintf("%d further %s finding(s) suppressed (cap %d)",
				dropped, r.ID, cfg.MaxPerRule), "raise Config.MaxPerRule to list all")
		}
		res.Findings = append(res.Findings, c.out...)
		res.Ran = append(res.Ran, r.ID)
	}
	return res, nil
}

func stringSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		if x != "" {
			m[x] = true
		}
	}
	return m
}

// gateLoc renders a gate location.
func gateLoc(n *netlist.Netlist, g *netlist.Gate) Loc {
	return Loc{
		Block: g.Block,
		Gate:  fmt.Sprintf("g%d(%s)", g.ID, g.Type),
		Net:   n.NetName(g.Output),
	}
}

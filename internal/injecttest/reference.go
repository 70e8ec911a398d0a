// Package injecttest holds the scalar reference campaign: what the
// neutrality tests of inject, dist, serve and the experiment harness
// compare the campaign engine against, so that no matrix is
// kernel-vs-kernel.
package injecttest

import (
	"testing"

	"repro/internal/inject"
	"repro/internal/workload"
)

// Reference runs every plan row on the scalar reference loop
// (Target.RunOne, interpreted simulator) over a cold golden it makes
// itself, and merges the rows in plan order with AssembleReport. Of the
// target's knobs it honours only Supervision.CycleBudget.
func Reference(t testing.TB, target *inject.Target, tr *workload.Trace, plan []inject.Injection) *inject.Report {
	t.Helper()
	ref := inject.Target{
		Analysis:    target.Analysis,
		NewInstance: target.NewInstance,
		Supervision: inject.Supervision{CycleBudget: target.Supervision.CycleBudget},
	}
	g, err := ref.RunGolden(tr)
	if err != nil {
		t.Fatal(err)
	}
	ck := &inject.Checkpoint{}
	for i, inj := range plan {
		res, err := ref.RunOne(g, inj)
		if err != nil {
			t.Fatal(err)
		}
		ck.Results = append(ck.Results, inject.IndexedResult{PlanIndex: i, Result: res})
	}
	rep, err := ref.AssembleReport(plan, ck)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

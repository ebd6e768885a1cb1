package explore

import (
	"fmt"
	"strconv"
	"strings"

	"kset/internal/sim"
)

// FaultAdversary configures non-crash fault injection for a search: in
// addition to its crash budget, the adversary may schedule fault steps of
// the given model — send omission, receive omission, or Byzantine value
// corruption — against live processes. Each effective fault step charges
// one fault event to its process (see sim.StepRequest); Budget caps the
// events per process and MaxFaulty caps how many distinct processes may
// commit any. The zero value (Model FaultCrash) disables fault branching
// entirely and is bit-identical to the crash-only engine.
type FaultAdversary struct {
	// Model selects the fault actions enumerated; FaultCrash means none.
	Model sim.FaultModel
	// Budget is the per-process fault-event budget. Non-positive values are
	// normalized to 1 when a non-crash Model is selected: the adversary is
	// always budgeted, mirroring the crash budget MaxCrashes.
	Budget int
	// MaxFaulty bounds the number of distinct processes that may commit
	// fault events; 0 means no bound beyond Budget.
	MaxFaulty int
}

// ParseFaults parses the CLI spelling of a fault adversary:
// "model[:budget[:maxfaulty]]", e.g. "send-omission", "receive-omission:2",
// "byzantine:1:1". The empty string (and "crash") selects the crash-only
// engine.
func ParseFaults(s string) (FaultAdversary, error) {
	if s == "" {
		return FaultAdversary{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) > 3 {
		return FaultAdversary{}, fmt.Errorf("explore: bad fault spec %q (want model[:budget[:maxfaulty]])", s)
	}
	model, err := sim.ParseFaultModel(parts[0])
	if err != nil {
		return FaultAdversary{}, err
	}
	fa := FaultAdversary{Model: model}
	if len(parts) > 1 {
		if fa.Budget, err = strconv.Atoi(parts[1]); err != nil || fa.Budget < 0 {
			return FaultAdversary{}, fmt.Errorf("explore: bad fault budget %q in %q", parts[1], s)
		}
	}
	if len(parts) > 2 {
		if fa.MaxFaulty, err = strconv.Atoi(parts[2]); err != nil || fa.MaxFaulty < 0 {
			return FaultAdversary{}, fmt.Errorf("explore: bad maxfaulty %q in %q", parts[2], s)
		}
	}
	if fa.Model == sim.FaultCrash && (fa.Budget != 0 || fa.MaxFaulty != 0) {
		return FaultAdversary{}, fmt.Errorf("explore: fault spec %q budgets the crash-only model", s)
	}
	return fa, nil
}

// String renders the adversary in ParseFaults form.
func (fa FaultAdversary) String() string {
	if fa.Model == sim.FaultCrash {
		return "crash"
	}
	s := fa.Model.String()
	if fa.Budget != 0 || fa.MaxFaulty != 0 {
		s += ":" + strconv.Itoa(fa.Budget)
	}
	if fa.MaxFaulty != 0 {
		s += ":" + strconv.Itoa(fa.MaxFaulty)
	}
	return s
}

// canFault reports whether the adversary may schedule a fault step for p at
// cfg: a non-crash model is selected, p's budget is not exhausted, and —
// when MaxFaulty bounds the faulty set — p is already faulty or the set has
// room.
func (e *Explorer) canFault(cfg *sim.Configuration, p sim.ProcessID) bool {
	fa := e.opts.Faults
	if fa.Model == sim.FaultCrash {
		return false
	}
	used := cfg.FaultsUsed(p)
	if used >= fa.Budget {
		return false
	}
	return fa.MaxFaulty <= 0 || used > 0 || cfg.FaultyProcesses() < fa.MaxFaulty
}

// faultRequest marks req as act's fault step, the single mapping shared by
// the search hot path (searchCtx.plan) and witness replay (replayActions).
func faultRequest(req *sim.StepRequest, f sim.FaultModel) {
	switch f {
	case sim.FaultSendOmission:
		req.OmitSends = true
	case sim.FaultReceiveOmission:
		req.DropDeliver = true
	case sim.FaultByzantine:
		req.Corrupt = true
	}
}

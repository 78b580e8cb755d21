package scenario

import (
	"fmt"

	"fourbit/internal/node"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// Event is one scripted dynamics entry of a Spec. Kinds:
//
//	node-down     power Nodes off at AtMin; with UntilMin set, reboot them
//	              then (death + reboot in one event). A down node radiates
//	              nothing and hears nothing; neighbors age it out.
//	node-up       power Nodes back on at AtMin.
//	power-step    set Nodes' transmit power to PowerDBm at AtMin.
//	interference  from AtMin to UntilMin (0 = forever), raise Nodes'
//	              receive noise floors with a bursty Gilbert-Elliott
//	              process: AmpDB excursions (default 30), mean burst
//	              MeanOnMS (default 500 ms), mean gap MeanOffS (default
//	              5 s). Losses from it are invisible to LQI — received
//	              packets still look clean — which is the paper's §2.1
//	              blind spot, now schedulable mid-run.
//	link-burst    from AtMin to UntilMin, attenuate the LinkA↔LinkB pair
//	              by AmpDB (default 50, i.e. silence) with the same burst
//	              process — the Figure 3 degraded-parent mechanism as a
//	              reusable event.
//
// Nodes empty means "every node except the root" (interference, power
// steps); node-down and node-up require explicit targets so a scenario
// cannot accidentally kill its whole network.
type Event struct {
	Kind     string
	AtMin    float64
	UntilMin float64 `json:",omitempty"`
	Nodes    []int   `json:",omitempty"`
	PowerDBm float64 `json:",omitempty"`
	AmpDB    float64 `json:",omitempty"`
	MeanOnMS float64 `json:",omitempty"`
	MeanOffS float64 `json:",omitempty"`
	LinkA    int     `json:",omitempty"`
	LinkB    int     `json:",omitempty"`
}

// EventKinds lists the supported dynamics kinds.
func EventKinds() []string {
	return []string{"node-down", "node-up", "power-step", "interference", "link-burst"}
}

func (e *Event) validate() error {
	switch e.Kind {
	case "node-down", "node-up":
		if len(e.Nodes) == 0 {
			return fmt.Errorf("%s needs explicit target Nodes", e.Kind)
		}
	case "power-step", "interference":
	case "link-burst":
		if e.LinkA == e.LinkB {
			return fmt.Errorf("link-burst needs two distinct endpoints, got %d-%d", e.LinkA, e.LinkB)
		}
	default:
		return fmt.Errorf("unknown event kind %q (kinds: %v)", e.Kind, EventKinds())
	}
	if e.AtMin < 0 {
		return fmt.Errorf("%s at %.2f min: negative time", e.Kind, e.AtMin)
	}
	if e.UntilMin != 0 && e.UntilMin <= e.AtMin {
		return fmt.Errorf("%s window [%.2f, %.2f) min is empty", e.Kind, e.AtMin, e.UntilMin)
	}
	if e.AmpDB < 0 || e.MeanOnMS < 0 || e.MeanOffS < 0 {
		return fmt.Errorf("%s: negative burst parameter", e.Kind)
	}
	return nil
}

// checkNodes verifies target indices against the built topology.
func (e *Event) checkNodes(tp *topo.Topology) error {
	check := func(id int) error {
		if id < 0 || id >= tp.N() {
			return fmt.Errorf("%s: node %d outside topology %s (N=%d)", e.Kind, id, tp.Name, tp.N())
		}
		return nil
	}
	for _, id := range e.Nodes {
		if err := check(id); err != nil {
			return err
		}
	}
	if e.Kind == "link-burst" {
		if err := check(e.LinkA); err != nil {
			return err
		}
		if err := check(e.LinkB); err != nil {
			return err
		}
	}
	return nil
}

// targets resolves the event's node set (empty = all non-root).
func (e *Event) targets(env *node.Env) []int {
	if len(e.Nodes) > 0 {
		return e.Nodes
	}
	out := make([]int, 0, env.Topo.N()-1)
	for i := 0; i < env.Topo.N(); i++ {
		if i != env.Topo.Root {
			out = append(out, i)
		}
	}
	return out
}

func orf(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

// sumModifier adds up several scripted loss processes on one link —
// multiple link-burst events on the same pair must all fire, but the
// channel holds a single modifier per directed link.
type sumModifier []phy.LinkModifier

// ExtraLossDB implements phy.LinkModifier.
func (s sumModifier) ExtraLossDB(t sim.Time) float64 {
	var sum float64
	for _, m := range s {
		sum += m.ExtraLossDB(t)
	}
	return sum
}

// compileDynamics turns the event list into the experiment harness's
// EnvMutate hook: modifiers install immediately, radio events schedule on
// the run's clock. All randomness comes from per-event named seed streams,
// so dynamics replicate exactly and never perturb the protocol streams.
// Link-burst events targeting the same pair stack (like noise modifiers)
// instead of overwriting each other.
func compileDynamics(events []Event) func(*node.Env) {
	evs := append([]Event(nil), events...)
	return func(env *node.Env) {
		links := map[[2]int]sumModifier{}
		for i := range evs {
			installEvent(env, i, &evs[i], links)
		}
		for pair, mods := range links {
			var m phy.LinkModifier = mods
			if len(mods) == 1 {
				m = mods[0]
			}
			env.Chan.SetModifierBoth(pair[0], pair[1], m)
		}
	}
}

// links collects link-burst modifiers per unordered pair (one shared
// process per pair, installed both ways).
func installEvent(env *node.Env, idx int, e *Event, links map[[2]int]sumModifier) {
	at := sim.FromSeconds(e.AtMin * 60)
	until := sim.FromSeconds(e.UntilMin * 60)
	switch e.Kind {
	case "node-down":
		// The root is never powered down: a dead sink measures only zeros,
		// and every preset's point is how the *network* reacts to churn.
		targets := make([]int, 0, len(e.targets(env)))
		for _, id := range e.targets(env) {
			if id != env.Topo.Root {
				targets = append(targets, id)
			}
		}
		env.Clock.At(at, func() {
			for _, id := range targets {
				env.Medium.Radio(id).SetDown(true)
			}
		})
		if e.UntilMin > 0 {
			env.Clock.At(until, func() {
				for _, id := range targets {
					env.Medium.Radio(id).SetDown(false)
				}
			})
		}
	case "node-up":
		targets := e.targets(env)
		env.Clock.At(at, func() {
			for _, id := range targets {
				env.Medium.Radio(id).SetDown(false)
			}
		})
	case "power-step":
		targets := e.targets(env)
		power := e.PowerDBm
		env.Clock.At(at, func() {
			for _, id := range targets {
				env.Medium.Radio(id).SetTxPower(power)
			}
		})
	case "interference":
		amp := orf(e.AmpDB, 30)
		meanOn := sim.FromSeconds(orf(e.MeanOnMS, 500) / 1000)
		meanOff := sim.FromSeconds(orf(e.MeanOffS, 5))
		for _, id := range e.targets(env) {
			ge := phy.NewGilbertElliott(amp, meanOff, meanOn,
				env.Seeds.Stream(fmt.Sprintf("scenario/event/%d/noise/%d", idx, id))).
				Window(at, until)
			env.Chan.AddNoiseModifier(id, ge)
		}
	case "link-burst":
		amp := orf(e.AmpDB, 50)
		meanOn := sim.FromSeconds(orf(e.MeanOnMS, 500) / 1000)
		meanOff := sim.FromSeconds(orf(e.MeanOffS, 5))
		ge := phy.NewGilbertElliott(amp, meanOff, meanOn,
			env.Seeds.Stream(fmt.Sprintf("scenario/event/%d/link", idx))).
			Window(at, until)
		a, b := e.LinkA, e.LinkB
		if a > b {
			a, b = b, a
		}
		links[[2]int{a, b}] = append(links[[2]int{a, b}], ge)
	}
}

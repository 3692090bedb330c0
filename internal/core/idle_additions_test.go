package core

import (
	"reflect"
	"testing"
	"time"

	"tahoedyn/internal/topology"
	"tahoedyn/internal/trace"
)

// An idle addition changes nothing (ROADMAP item 5's relations): the
// paper's two-way dumbbell with a host that has no connection, or with a
// third switch and a trunk to it that no route crosses, or both, logs
// the same drops, and on the original trunk and connections the same
// departures, queue series, windows and ACK times, to the byte.
func TestIdleAdditionsChangeNothing(t *testing.T) {
	for _, tau := range []time.Duration{10 * time.Millisecond, time.Second} {
		base := twoWay(tau)
		g := topology.Dumbbell()
		g.Hosts = []topology.HostSpec{{Switch: 0}, {Switch: 1}}
		base.Topology = &g
		want := Run(base)
		if len(want.Drops) == 0 {
			t.Fatalf("τ %v: the dumbbell dropped nothing: the relation compares no drop", tau)
		}
		for _, tc := range []struct {
			name string
			add  func(*topology.Graph)
		}{
			{"idle host", func(g *topology.Graph) {
				g.Hosts = append(g.Hosts, topology.HostSpec{Switch: 1})
			}},
			{"unrouted switch and trunk", func(g *topology.Graph) {
				g.Switches++
				g.Links = append(g.Links, topology.LinkSpec{A: 1, B: 2})
			}},
			{"both", func(g *topology.Graph) {
				g.Switches++
				g.Links = append(g.Links, topology.LinkSpec{A: 0, B: 2})
				g.Hosts = append(g.Hosts, topology.HostSpec{Switch: 0})
			}},
		} {
			cfg, g2 := base, g
			g2.Links = append([]topology.LinkSpec(nil), g.Links...)
			g2.Hosts = append([]topology.HostSpec(nil), g.Hosts...)
			tc.add(&g2)
			cfg.Topology = &g2
			got := Run(cfg)
			for _, c := range []struct {
				log       string
				got, want any
			}{
				{"drops", got.Drops, want.Drops},
				{"departures", got.TrunkDeps[0], want.TrunkDeps[0]},
				{"queue series", queuePoints(got), queuePoints(want)},
				{"windows", got.Cwnd, want.Cwnd},
				{"ACK times", got.AckArrivals, want.AckArrivals},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("τ %v, %s: the %s differ from the dumbbell's", tau, tc.name, c.log)
				}
			}
		}
	}
}

// queuePoints returns the points of trunk 0's queue series, both ways.
func queuePoints(res *Result) [2][]trace.Point {
	return [2][]trace.Point{res.TrunkQueue[0][0].Points, res.TrunkQueue[0][1].Points}
}

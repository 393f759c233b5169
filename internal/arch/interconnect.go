package arch

import (
	"fmt"
	"math"
)

// Topology names the shape of the on-chip interconnect.
type Topology string

const (
	// TopologyBus is a single shared link every cross-core transfer
	// serializes on — the worst-case contention shape.
	TopologyBus Topology = "bus"
	// TopologyMesh is a 2D mesh NoC with XY dimension-order routing:
	// cores sit on a MeshWidth-wide grid and a transfer crosses
	// |Δx| + |Δy| directed links.
	TopologyMesh Topology = "mesh"
)

// DefaultBitsPerCycle converts a task-graph edge's communication cycle
// count into message bits when the interconnect spec does not say
// otherwise: one 32-bit word moves per communication cycle, the natural
// width of the ARM7 cores of §II-A.
const DefaultBitsPerCycle = 32.0

// Interconnect is the communication fabric of a platform: a topology of
// shared links, each with a finite bandwidth and a per-hop latency.
//
// The ideal fabric — today's dedicated contention-free point-to-point
// links, where a cross-core edge costs its cycle count at the slower
// endpoint's clock — is represented by the *absence* of an Interconnect
// (Platform.Interconnect() == nil), so existing platforms and problem
// keys are untouched.
//
// With an Interconnect present, a transfer of an edge with C communication
// cycles carries C·BitsPerCycle bits and, uncontended, takes
//
//	hops·HopLatencySec + bits/BandwidthBps
//
// seconds (cut-through: the head word pays one HopLatencySec per link,
// the body streams behind it at the link bandwidth). Contending transfers
// on a shared link serialize: each link remembers when it drains and a
// later transfer waits for it, so concurrency is charged, deterministically
// in the order transfers are issued.
type Interconnect struct {
	// Topology selects the link graph: TopologyBus or TopologyMesh.
	Topology Topology
	// BandwidthBps is each link's bandwidth in bits per second. Required,
	// positive.
	BandwidthBps float64
	// HopLatencySec is the per-hop (per-link) forwarding latency in
	// seconds. Non-negative.
	HopLatencySec float64
	// BitsPerCycle converts an edge's communication cycles into message
	// bits; 0 selects DefaultBitsPerCycle.
	BitsPerCycle float64
	// MeshWidth is the mesh's column count; 0 selects ceil(sqrt(cores)).
	// Only meaningful for TopologyMesh (must be 0 for a bus).
	MeshWidth int

	// meshHeight is derived at platform construction: the row count
	// covering all cores. Routers exist at every grid slot, so XY routing
	// is well-defined even when the last row is partially populated.
	meshHeight int
}

// Validate checks the raw (pre-normalization) interconnect parameters.
func (ic *Interconnect) Validate() error {
	switch ic.Topology {
	case TopologyBus:
		if ic.MeshWidth != 0 {
			return fmt.Errorf("arch: interconnect: mesh_width is only valid for the mesh topology")
		}
	case TopologyMesh:
		if ic.MeshWidth < 0 {
			return fmt.Errorf("arch: interconnect: negative mesh width %d", ic.MeshWidth)
		}
	default:
		return fmt.Errorf("arch: interconnect: unknown topology %q (want %q or %q)", ic.Topology, TopologyBus, TopologyMesh)
	}
	if ic.BandwidthBps <= 0 || math.IsNaN(ic.BandwidthBps) || math.IsInf(ic.BandwidthBps, 0) {
		return fmt.Errorf("arch: interconnect: bandwidth must be positive and finite, got %v bits/sec", ic.BandwidthBps)
	}
	if ic.HopLatencySec < 0 || math.IsNaN(ic.HopLatencySec) || math.IsInf(ic.HopLatencySec, 0) {
		return fmt.Errorf("arch: interconnect: hop latency must be non-negative and finite, got %v sec", ic.HopLatencySec)
	}
	if ic.BitsPerCycle < 0 || math.IsNaN(ic.BitsPerCycle) || math.IsInf(ic.BitsPerCycle, 0) {
		return fmt.Errorf("arch: interconnect: bits per cycle must be non-negative and finite, got %v", ic.BitsPerCycle)
	}
	return nil
}

// normalized validates ic and returns an independent copy with every
// default resolved against the platform's core count, so equal fabrics
// compare (and canonically encode) identically however they were spelled.
func (ic *Interconnect) normalized(cores int) (*Interconnect, error) {
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	out := *ic
	if out.BitsPerCycle == 0 {
		out.BitsPerCycle = DefaultBitsPerCycle
	}
	if out.Topology == TopologyMesh {
		if out.MeshWidth == 0 {
			out.MeshWidth = int(math.Ceil(math.Sqrt(float64(cores))))
		}
		// A grid wider than the core count is a single row whose extra
		// routers no core reaches; refusing it keeps NumLinks O(cores).
		if out.MeshWidth > cores {
			return nil, fmt.Errorf("arch: interconnect: mesh width %d exceeds the %d cores", out.MeshWidth, cores)
		}
		out.meshHeight = (cores + out.MeshWidth - 1) / out.MeshWidth
	}
	return &out, nil
}

// NumLinks returns the number of directed links of the fabric: 1 for a
// bus, 4 per router for a mesh (east/west/south/north, some of which dead-
// end at the grid edge and are simply never used).
func (ic *Interconnect) NumLinks() int {
	if ic.Topology == TopologyBus {
		return 1
	}
	return 4 * ic.MeshWidth * ic.meshHeight
}

// Hops returns the number of links a transfer from core a to core b of the
// platform crosses: 1 on a bus, the XY Manhattan distance on a mesh
// (minimum 1, since even co-located routers cross one local link — but the
// scheduler never routes same-core edges, so a ≠ b in practice).
func (ic *Interconnect) Hops(a, b int) int {
	if ic.Topology == TopologyBus {
		return 1
	}
	w := ic.MeshWidth
	return max(1, abs(a%w-b%w)+abs(a/w-b/w))
}

// PathLinks appends the directed link ids a transfer from core a to core b
// reserves, in crossing order, to buf (typically a reused scratch slice)
// and returns the extended slice. XY dimension-order routing: horizontal
// first, then vertical. Mesh link ids are 4·router + direction with
// directions 0 east (+x), 1 west (−x), 2 south (+y), 3 north (−y).
func (ic *Interconnect) PathLinks(a, b int, buf []int) []int {
	if ic.Topology == TopologyBus {
		return append(buf, 0)
	}
	w := ic.MeshWidth
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	for ax < bx {
		buf = append(buf, 4*(ay*w+ax)+0)
		ax++
	}
	for ax > bx {
		buf = append(buf, 4*(ay*w+ax)+1)
		ax--
	}
	for ay < by {
		buf = append(buf, 4*(ay*w+ax)+2)
		ay++
	}
	for ay > by {
		buf = append(buf, 4*(ay*w+ax)+3)
		ay--
	}
	if len(buf) == 0 {
		// Same router: charge the local link east of it so a degenerate
		// transfer still pays one hop, mirroring Hops.
		buf = append(buf, 4*(ay*w+ax)+0)
	}
	return buf
}

// Routes is a platform's fabric routes, tabulated once at construction. An
// XY route from core a to core b is fixed by a's first link id and the grid
// displacement from a to b, so the table keeps one route per displacement,
// (2·MeshWidth−1)·(2·meshHeight−1) of them, and each core's key into it; a
// bus is a one-route table. Reserve walks a route's links and the list
// scheduler's mapped tails read its hop latency. The table is not part of
// the Interconnect value, which stays comparable.
type Routes struct {
	origin []routeOrigin
	disp   []route
	center int
}

// routeOrigin places a core in the route table: the route from core a to
// core b is disp[origin[b].key−origin[a].key+center], and its link ids
// count from a's base 4·a (0 on a bus).
type routeOrigin struct{ key, base int32 }

// route is one tabulated route in crossing order: n0 links from
// base+off0 in steps of step0 (the horizontal run), then the other
// hops−n0 links from base+off1 in steps of step1 (the vertical run).
// hopSec is hops·HopLatencySec.
type route struct {
	off0, step0, off1, step1, n0, hops int32
	hopSec                             float64
}

// newRoutes tabulates the routes of the normalized fabric ic over cores
// cores: the link ids PathLinks lists, for every displacement.
func newRoutes(ic *Interconnect, cores int) *Routes {
	rt := &Routes{origin: make([]routeOrigin, cores)}
	if ic.Topology == TopologyBus {
		rt.disp = []route{{n0: 1, hops: 1, hopSec: ic.HopLatencySec}}
		return rt
	}
	w, h := ic.MeshWidth, ic.meshHeight
	span := 2*w - 1
	rt.disp = make([]route, span*(2*h-1))
	rt.center = (h-1)*span + w - 1
	for c := range rt.origin {
		rt.origin[c] = routeOrigin{key: int32(c/w*span + c%w), base: int32(4 * c)}
	}
	// Directions: 0 east, 1 west along a's row; 2 south, 3 north along b's
	// column, whose first router is a+dx.
	for dy := 1 - h; dy < h; dy++ {
		for dx := 1 - w; dx < w; dx++ {
			r := route{step0: 4, off1: int32(4*dx + 2), step1: int32(4 * w)}
			if dx < 0 {
				r.off0, r.step0 = 1, -4
			}
			if dy < 0 {
				r.off1, r.step1 = int32(4*dx+3), int32(-4*w)
			}
			n0, hops := abs(dx), abs(dx)+abs(dy)
			if hops == 0 {
				// Same router: the local link east of it, as in PathLinks.
				n0, hops = 1, 1
			}
			r.n0, r.hops = int32(n0), int32(hops)
			r.hopSec = float64(hops) * ic.HopLatencySec
			rt.disp[rt.center+dy*span+dx] = r
		}
	}
	return rt
}

// at returns the route from core a to core b and the base its link ids
// count from.
func (rt *Routes) at(a, b int) (*route, int) {
	o := rt.origin[a]
	return &rt.disp[int(rt.origin[b].key-o.key)+rt.center], int(o.base)
}

// HopSec returns the hop latency of the route from core a to core b,
// hops·HopLatencySec: its uncontended transfer time less the
// serialization.
func (rt *Routes) HopSec(a, b int) float64 {
	r, _ := rt.at(a, b)
	return r.hopSec
}

// Links appends the link ids of the tabulated route from core a to core b,
// in crossing order, to buf and returns the extended slice.
func (rt *Routes) Links(a, b int, buf []int) []int {
	r, base := rt.at(a, b)
	l, step := base+int(r.off0), int(r.step0)
	for k := 0; k < int(r.hops); k++ {
		if k == int(r.n0) {
			l, step = base+int(r.off1), int(r.step1)
		}
		buf = append(buf, l)
		l += step
	}
	return buf
}

// Reserve applies the fabric's cut-through channel reservation to a
// transfer from core a to core b issued at now, and returns its arrival
// time. The transfer starts once every link on its route is free of
// earlier traffic by the time its head word gets there (link i is entered
// i·hop after the start), then holds each link for the serialization time
// ser, so busy[l], the time link l drains, moves to its new drain time.
// Uncontended the arrival is now + hops·hop + ser; contention only delays
// the start. Callers issue transfers in a deterministic order, which fixes
// who queues behind whom.
//
// It is the one reservation rule of the list scheduler (T = seconds as
// float64) and the simulator (T = integer femtoseconds). Each i·hop is
// rounded on its own, so no architecture fuses it into the sum.
func Reserve[T ~float64 | ~int64](rt *Routes, busy []T, a, b int, now, hop, ser T) T {
	r, base := rt.at(a, b)
	hops, n0 := int(r.hops), int(r.n0)
	start := now
	l, step := base+int(r.off0), int(r.step0)
	var i T
	for k := 0; k < hops; k++ {
		if k == n0 {
			l, step = base+int(r.off1), int(r.step1)
		}
		start = max(start, busy[l]-T(i*hop))
		l += step
		i++
	}
	l, step = base+int(r.off0), int(r.step0)
	i = 0
	for k := 0; k < hops; k++ {
		if k == n0 {
			l, step = base+int(r.off1), int(r.step1)
		}
		busy[l] = start + T(i*hop) + ser
		l += step
		i++
	}
	return start + T(i*hop) + ser
}

// MessageBits converts an edge's communication cycle count into message
// bits on this fabric.
func (ic *Interconnect) MessageBits(cycles int64) float64 {
	return float64(cycles) * ic.BitsPerCycle
}

// TransferSeconds returns the uncontended latency of moving an edge with
// the given communication cycles from core a to core b:
// hops·HopLatencySec + bits/BandwidthBps. Contention can only add to it.
func (ic *Interconnect) TransferSeconds(a, b int, cycles int64) float64 {
	return float64(ic.Hops(a, b))*ic.HopLatencySec + ic.MessageBits(cycles)/ic.BandwidthBps
}

// MinTransferSeconds returns the smallest latency any cross-core transfer
// of the given cycle count can incur on this fabric (one hop, no
// contention) — the admissible floor the metrics bounds use.
func (ic *Interconnect) MinTransferSeconds(cycles int64) float64 {
	return ic.HopLatencySec + ic.MessageBits(cycles)/ic.BandwidthBps
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

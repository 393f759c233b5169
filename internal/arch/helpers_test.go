package arch

// Accessors and oracles that only this package's tests use.

// Route is the path Reserve walks for a transfer, for inspection: see
// Interconnect.Route.
type Route struct {
	first0, step0, first1, step1, n0, hops int
}

// Route returns the path Reserve walks for a transfer from core a to core
// b of the platform: the link ids PathLinks lists, held arithmetically.
func (ic *Interconnect) Route(a, b int) Route {
	var r Route
	r.first0, r.step0, r.first1, r.step1, r.n0, r.hops = ic.route(a, b)
	return r
}

// Hops returns the number of links on the route.
func (r Route) Hops() int { return r.hops }

// Link returns the route's i-th link id, 0 ≤ i < Hops().
func (r Route) Link(i int) int {
	if i < r.n0 {
		return r.first0 + i*r.step0
	}
	return r.first1 + (i-r.n0)*r.step1
}

package ripng

import (
	"fmt"
	"slices"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/rtable"
)

// Timer defaults (RFC 2080 §2.3). Statistics in the paper note that
// once the topology stabilises, updates arrive on the order of minutes —
// these timers are why.
const (
	DefaultUpdateSeconds  = 30
	DefaultTimeoutSeconds = 180
	DefaultGCSeconds      = 120
)

// Clock is engine time in seconds since an arbitrary epoch; the caller
// advances it (no wall-clock dependence).
type Clock int64

// Iface describes one router interface for RIPng purposes.
type Iface struct {
	// LinkLocal is the interface's link-local address, used as the
	// source of updates and as the next hop learned by neighbours.
	LinkLocal ipv6.Addr
	// Cost is added to metrics learned through this interface (≥1).
	Cost int
}

// OutPacket is a RIPng packet queued for transmission.
type OutPacket struct {
	Iface int
	Dst   ipv6.Addr
	Pkt   Packet
}

type ripRoute struct {
	prefix  bits.Prefix
	nextHop ipv6.Addr
	iface   int
	metric  int
	tag     uint16
	direct  bool // connected network: never expires
	expires Clock
	gcAt    Clock
	changed bool
}

// Engine is one router's RIPng process. It maintains the router's
// forwarding table (an rtable.Table of any implementation) from received
// responses, answers requests, and emits periodic, triggered and
// garbage-collection updates.
type Engine struct {
	table  rtable.Table
	ifaces []Iface
	routes map[bits.Prefix]*ripRoute
	// order holds the same routes as the map, kept sorted by prefix
	// (address, then length) so every emission walks the RIB in
	// deterministic order without sorting it.
	order []*ripRoute

	now        Clock
	nextUpdate Clock
	update     Clock
	timeout    Clock
	gc         Clock

	out []OutPacket
	// rx and tx are engine-owned RTE scratch buffers: rx receives
	// decoded datagrams (ReceiveDatagram), tx collects exported entries
	// before queueResponses copies them into caller-owned packets.
	rx, tx []RTE

	// Stats counters.
	responsesIn, requestsIn, updatesOut int64
	badRTEs                             int64
}

// NewEngine returns an engine over the given forwarding table and
// interfaces, using default timers. The engine schedules its first
// periodic update one interval after start.
func NewEngine(table rtable.Table, ifaces []Iface, start Clock) *Engine {
	e := &Engine{
		table:   table,
		ifaces:  append([]Iface(nil), ifaces...),
		routes:  make(map[bits.Prefix]*ripRoute),
		now:     start,
		update:  DefaultUpdateSeconds,
		timeout: DefaultTimeoutSeconds,
		gc:      DefaultGCSeconds,
	}
	e.nextUpdate = start + e.update
	return e
}

// Start queues the RFC 2080 §2.5.1 startup behaviour: a whole-table
// request multicast on every interface, so neighbours answer with their
// tables immediately instead of waiting for their periodic updates.
func (e *Engine) Start() {
	for i := range e.ifaces {
		e.out = append(e.out, OutPacket{
			Iface: i,
			Dst:   ipv6.AllRIPRouters,
			Pkt:   WholeTableRequest(),
		})
	}
}

// SetTimers overrides the protocol timers (tests and examples).
func (e *Engine) SetTimers(update, timeout, gc Clock) {
	e.update, e.timeout, e.gc = update, timeout, gc
	e.nextUpdate = e.now + update
}

// Table returns the forwarding table the engine maintains.
func (e *Engine) Table() rtable.Table { return e.table }

// AddDirect installs a connected network on iface: metric 1, never aged.
func (e *Engine) AddDirect(prefix bits.Prefix, iface int) error {
	if iface < 0 || iface >= len(e.ifaces) {
		return fmt.Errorf("ripng: interface %d out of range", iface)
	}
	r := &ripRoute{prefix: prefix, iface: iface, metric: 1, direct: true}
	e.addRoute(r)
	return e.install(r)
}

// addRoute records r in the map and at its sorted position in order,
// replacing any route already held for the same prefix.
func (e *Engine) addRoute(r *ripRoute) {
	e.routes[r.prefix] = r
	i, found := slices.BinarySearchFunc(e.order, r.prefix, func(o *ripRoute, p bits.Prefix) int {
		if c := o.prefix.Addr.Cmp(p.Addr); c != 0 {
			return c
		}
		return o.prefix.Len - p.Len
	})
	if found {
		e.order[i] = r
		return
	}
	e.order = slices.Insert(e.order, i, r)
}

func (e *Engine) install(r *ripRoute) error {
	if r.metric >= Infinity {
		e.table.Delete(r.prefix)
		return nil
	}
	return e.table.Insert(rtable.Route{
		Prefix:  r.prefix,
		NextHop: r.nextHop,
		Iface:   r.iface,
		Metric:  r.metric,
		Tag:     r.tag,
	})
}

// Receive processes a RIPng packet arriving on iface from src (the
// neighbour's link-local address). Outgoing packets it provokes are
// queued for Collect.
func (e *Engine) Receive(iface int, src ipv6.Addr, p Packet) error {
	if iface < 0 || iface >= len(e.ifaces) {
		return fmt.Errorf("ripng: interface %d out of range", iface)
	}
	switch p.Command {
	case CommandRequest:
		e.requestsIn++
		return e.handleRequest(iface, src, p)
	case CommandResponse:
		e.responsesIn++
		return e.handleResponse(iface, src, p)
	}
	return fmt.Errorf("ripng: command %d", p.Command)
}

// ReceiveDatagram is UnwrapUDP followed by Receive on the decoded
// packet, with the RTEs decoded into an engine-owned buffer that the
// next call reuses (Receive never retains them). A datagram that does
// not unwrap is rejected with UnwrapUDP's error.
func (e *Engine) ReceiveDatagram(iface int, datagram []byte) error {
	src, p, err := unwrapAppend(datagram, e.rx[:0])
	if err != nil {
		return err
	}
	e.rx = p.RTEs
	return e.Receive(iface, src, p)
}

func (e *Engine) handleRequest(iface int, src ipv6.Addr, p Packet) error {
	if IsWholeTableRequest(p) {
		e.queueResponses(iface, src, e.exportRTEs(iface))
		return nil
	}
	// Specific-prefix request: answer with our metric for each entry
	// (Infinity when unknown), no split horizon (RFC 2080 §2.4.1), split
	// at the MTU like any other response.
	e.tx = e.tx[:0]
	for _, q := range p.RTEs {
		m := uint8(Infinity)
		var tag uint16
		if r, ok := e.routes[q.Prefix]; ok {
			m = uint8(r.metric)
			tag = r.tag
		}
		e.tx = append(e.tx, RTE{Prefix: q.Prefix, Metric: m, Tag: tag})
	}
	e.queueResponses(iface, src, e.tx)
	return nil
}

func (e *Engine) handleResponse(iface int, src ipv6.Addr, p Packet) error {
	// RFC 2080 §2.4.2: responses must come from a link-local address.
	if !ipv6.IsLinkLocal(src) {
		return fmt.Errorf("ripng: response from non-link-local source %s", ipv6.FormatAddr(src))
	}
	cost := e.ifaces[iface].Cost
	if cost < 1 {
		cost = 1
	}
	for _, rte := range p.RTEs {
		if rte.Metric == NextHopMetric {
			continue // next-hop RTEs only redirect; our topology model doesn't need them
		}
		// RFC 2080 §2.4.2: validate each RTE and ignore invalid ones
		// without discarding the rest of the response. Parse enforces the
		// same bounds on the wire, but packets can also be injected
		// in-memory (tests, fault campaigns), so the engine revalidates.
		if rte.Prefix.Len > 128 || rte.Metric < 1 || rte.Metric > Infinity {
			e.badRTEs++
			continue
		}
		if ipv6.IsMulticast(rte.Prefix.Addr) || ipv6.IsLinkLocal(rte.Prefix.Addr) {
			continue // never route to multicast or link-local prefixes
		}
		metric := int(rte.Metric) + cost
		if metric > Infinity {
			metric = Infinity
		}
		e.updateRoute(rte.Prefix, src, iface, metric, rte.Tag)
	}
	return nil
}

// updateRoute applies the RFC 2080 §2.4.2 distance-vector rules.
func (e *Engine) updateRoute(prefix bits.Prefix, nextHop ipv6.Addr, iface, metric int, tag uint16) {
	r, exists := e.routes[prefix]
	switch {
	case !exists:
		if metric >= Infinity {
			return // don't add unreachable routes
		}
		r = &ripRoute{prefix: prefix, nextHop: nextHop, iface: iface,
			metric: metric, tag: tag, changed: true, expires: e.now + e.timeout}
		e.addRoute(r)
		_ = e.install(r)
	case r.direct:
		return // connected routes never learned over
	case r.nextHop == nextHop && r.iface == iface:
		// Same gateway: always believe it. The timeout restarts only
		// while the route stays reachable (RFC 2080 §2.4.2): a metric-16
		// update from the gateway poisons the route and must start GC
		// aging instead of keeping the route alive.
		if metric < Infinity {
			r.expires = e.now + e.timeout
		}
		if metric != r.metric {
			e.setMetric(r, metric, tag)
		}
	case metric < r.metric:
		// Strictly better route through a different gateway.
		r.nextHop, r.iface = nextHop, iface
		r.expires = e.now + e.timeout
		e.setMetric(r, metric, tag)
	}
}

func (e *Engine) setMetric(r *ripRoute, metric int, tag uint16) {
	r.metric, r.tag, r.changed = metric, tag, true
	if metric >= Infinity {
		r.gcAt = e.now + e.gc
	} else {
		r.gcAt = 0
	}
	_ = e.install(r)
}

// Tick advances engine time, firing timeouts, garbage collection,
// triggered updates and the periodic update.
func (e *Engine) Tick(now Clock) {
	if now < e.now {
		return
	}
	e.now = now
	for _, r := range e.order {
		if r.direct || r.metric >= Infinity {
			continue
		}
		if r.expires != 0 && now >= r.expires {
			e.setMetric(r, Infinity, r.tag) // route timed out: poison it
		}
	}
	keep := e.order[:0]
	for _, r := range e.order {
		// A poisoned route may only be garbage-collected after its
		// metric-16 advertisement has gone out (r.changed cleared by the
		// next update); deleting it first would silently withdraw the
		// route and leave neighbors counting on a dead path. This pins
		// the expiry -> poison advertisement -> deletion ordering even
		// when the GC interval is zero.
		if r.metric >= Infinity && r.gcAt != 0 && now >= r.gcAt && !r.changed {
			delete(e.routes, r.prefix)
			e.table.Delete(r.prefix)
			continue
		}
		keep = append(keep, r)
	}
	clear(e.order[len(keep):])
	e.order = keep
	if now >= e.nextUpdate {
		e.emitPeriodic()
		e.nextUpdate = now + e.update
	} else if e.anyChanged() {
		e.emitTriggered()
	}
}

func (e *Engine) anyChanged() bool {
	for _, r := range e.order {
		if r.changed {
			return true
		}
	}
	return false
}

func (e *Engine) emitPeriodic() {
	perIface := (len(e.order) + MaxRTEsPerPacket - 1) / MaxRTEsPerPacket
	e.out = slices.Grow(e.out, perIface*len(e.ifaces))
	for i := range e.ifaces {
		e.queueResponses(i, ipv6.AllRIPRouters, e.exportRTEs(i))
	}
	e.finishUpdate()
}

func (e *Engine) emitTriggered() {
	for i := range e.ifaces {
		e.tx = e.tx[:0]
		for _, r := range e.order {
			if r.changed {
				e.tx = append(e.tx, e.exportOne(r, i))
			}
		}
		e.queueResponses(i, ipv6.AllRIPRouters, e.tx)
	}
	e.finishUpdate()
}

// finishUpdate clears every change flag once an update has gone out.
func (e *Engine) finishUpdate() {
	for _, r := range e.order {
		r.changed = false
	}
	e.updatesOut++
}

// exportOne applies split horizon with poisoned reverse: routes learned
// through the interface being advertised are sent with metric Infinity.
func (e *Engine) exportOne(r *ripRoute, iface int) RTE {
	m := uint8(r.metric)
	if !r.direct && r.iface == iface {
		m = Infinity
	}
	return RTE{Prefix: r.prefix, Metric: m, Tag: r.tag}
}

// exportRTEs exports the whole RIB, in prefix order, as advertised on
// iface. The result lives in the engine's tx scratch buffer.
func (e *Engine) exportRTEs(iface int) []RTE {
	e.tx = e.tx[:0]
	for _, r := range e.order {
		e.tx = append(e.tx, e.exportOne(r, iface))
	}
	return e.tx
}

// queueResponses splits rtes across MTU-sized packets. The packets own
// one fresh copy of rtes between them (each capped at its own entries),
// so rtes may be scratch and the caller of Collect may keep them.
func (e *Engine) queueResponses(iface int, dst ipv6.Addr, rtes []RTE) {
	if len(rtes) == 0 {
		return
	}
	rtes = slices.Clone(rtes)
	for len(rtes) > 0 {
		n := min(len(rtes), MaxRTEsPerPacket)
		e.out = append(e.out, OutPacket{
			Iface: iface, Dst: dst,
			Pkt: Packet{Command: CommandResponse, RTEs: rtes[:n:n]},
		})
		rtes = rtes[n:]
	}
}

// Collect drains the queued outgoing packets.
func (e *Engine) Collect() []OutPacket {
	out := e.out
	e.out = nil
	return out
}

// RouteCount returns the number of RIPng routes (including poisoned ones
// awaiting garbage collection).
func (e *Engine) RouteCount() int { return len(e.routes) }

// LinkLocal returns iface's link-local address.
func (e *Engine) LinkLocal(iface int) ipv6.Addr { return e.ifaces[iface].LinkLocal }

// Ifaces returns the interface count.
func (e *Engine) Ifaces() int { return len(e.ifaces) }

// Stats returns protocol counters: responses and requests received,
// updates emitted.
func (e *Engine) Stats() (responsesIn, requestsIn, updatesOut int64) {
	return e.responsesIn, e.requestsIn, e.updatesOut
}

// BadRTEs returns how many routing table entries were rejected by the
// §2.4.2 per-entry validation (metric outside 1..Infinity, prefix
// length beyond 128).
func (e *Engine) BadRTEs() int64 { return e.badRTEs }

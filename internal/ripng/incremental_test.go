package ripng

import (
	"reflect"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
	"taco/internal/workload"
)

// checkOrder asserts the engine's prefix-ordered slice holds exactly the
// routes of its map, strictly ascending by (address, length).
func checkOrder(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.order) != len(e.routes) {
		t.Fatalf("order holds %d routes, map %d", len(e.order), len(e.routes))
	}
	for i, r := range e.order {
		if e.routes[r.prefix] != r {
			t.Fatalf("order[%d] %s is not the map's route", i, ipv6.FormatPrefix(r.prefix))
		}
		if i == 0 {
			continue
		}
		prev := e.order[i-1].prefix
		c := prev.Addr.Cmp(r.prefix.Addr)
		if c > 0 || c == 0 && prev.Len >= r.prefix.Len {
			t.Fatalf("order[%d] %s not after %s", i, ipv6.FormatPrefix(r.prefix), ipv6.FormatPrefix(prev))
		}
	}
}

// The prefix-ordered RIB must track the map through learning, direct
// routes (including re-adding one), poisoning, timeouts and garbage
// collection.
func TestRIBOrderTracksRoutes(t *testing.T) {
	e := newTestEngine(t, 3)
	e.SetTimers(5, 12, 4)
	rng := workload.NewRNG(17)
	prefix := func() bits.Prefix {
		// Few distinct addresses and lengths, so nested and equal-address
		// prefixes are common.
		addr := bits.FromWords(0x20010db8, uint32(rng.Intn(4)), 0, 0)
		return bits.MakePrefix(addr, 32+16*rng.Intn(3))
	}
	for i := 0; i < 4; i++ {
		if err := e.AddDirect(prefix(), rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
		checkOrder(t, e)
	}
	for now := Clock(1); now <= 80; now++ {
		if now < 50 {
			resp := Packet{Command: CommandResponse}
			for j := rng.Intn(6); j > 0; j-- {
				resp.RTEs = append(resp.RTEs, RTE{Prefix: prefix(), Metric: uint8(1 + rng.Intn(Infinity))})
			}
			if err := e.Receive(rng.Intn(3), ll(uint64(100+rng.Intn(3))), resp); err != nil {
				t.Fatal(err)
			}
			checkOrder(t, e)
		}
		e.Tick(now)
		e.Collect()
		checkOrder(t, e)
	}
	// Every learned route has timed out and been collected; only the
	// direct routes remain.
	for _, r := range e.order {
		if !r.direct {
			t.Errorf("learned route %s survived timeout and GC", ipv6.FormatPrefix(r.prefix))
		}
	}
}

// ReceiveDatagram must behave exactly like UnwrapUDP followed by
// Receive, and reusing its decode buffer must never reach packets
// already handed to Collect's caller.
func TestReceiveDatagramMatchesUnwrapReceive(t *testing.T) {
	a, b := newTestEngine(t, 2), newTestEngine(t, 2)
	for _, e := range []*Engine{a, b} {
		if err := e.AddDirect(pfx("2001:db8:aaaa::/48"), 1); err != nil {
			t.Fatal(err)
		}
	}
	resp := Packet{Command: CommandResponse, RTEs: []RTE{
		{Prefix: pfx("2001:db8:1::/48"), Metric: 2, Tag: 7},
		{Prefix: pfx("2001:db8:2::/48"), Metric: 3},
	}}
	req := Packet{Command: CommandRequest, RTEs: []RTE{
		{Prefix: pfx("2001:db8:aaaa::/48"), Metric: 1},
		{Prefix: pfx("2001:db8:1::/48"), Metric: 1},
	}}
	var aOut, bOut []OutPacket
	for _, p := range []Packet{resp, req, resp} {
		d, err := WrapUDP(ll(9), ipv6.AllRIPRouters, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.ReceiveDatagram(0, d); err != nil {
			t.Fatal(err)
		}
		src, q, err := UnwrapUDP(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Receive(0, src, q); err != nil {
			t.Fatal(err)
		}
		aOut = append(aOut, a.Collect()...)
		bOut = append(bOut, b.Collect()...)
	}
	a.Tick(1)
	b.Tick(1)
	aOut = append(aOut, a.Collect()...)
	bOut = append(bOut, b.Collect()...)
	if !reflect.DeepEqual(aOut, bOut) {
		t.Errorf("ReceiveDatagram emitted %+v, UnwrapUDP+Receive %+v", aOut, bOut)
	}
	if !reflect.DeepEqual(a.Table().Routes(), b.Table().Routes()) {
		t.Error("forwarding tables differ")
	}
	garbage, _ := WrapUDP(ll(9), ipv6.AllRIPRouters, resp)
	garbage[len(garbage)-1] ^= 0x40
	if err := a.ReceiveDatagram(0, garbage); err == nil {
		t.Error("corrupted datagram accepted")
	}
}

// A converged engine's housekeeping must not allocate: a quiescent Tick
// with no emission due allocates nothing, and a periodic emission
// allocates at most one buffer per packet it emits plus a small
// constant (the packets and their RTEs belong to the caller).
func TestEngineTickAllocs(t *testing.T) {
	const ifaces, routes = 3, 150
	e := newTestEngine(t, ifaces)
	e.SetTimers(30, 1<<40, 120)
	if err := e.AddDirect(pfx("2001:db8:ffff::/48"), 2); err != nil {
		t.Fatal(err)
	}
	resp := Packet{Command: CommandResponse}
	for i := 0; i < routes; i++ {
		resp.RTEs = append(resp.RTEs, RTE{
			Prefix: bits.MakePrefix(bits.FromWords(0x20010000+uint32(i), 0, 0, 0), 32),
			Metric: 1,
		})
		if len(resp.RTEs) == MaxRTEsPerPacket || i == routes-1 {
			if err := e.Receive(i%ifaces, ll(99), resp); err != nil {
				t.Fatal(err)
			}
			resp.RTEs = resp.RTEs[:0]
		}
	}
	now := Clock(1)
	e.Tick(now) // triggered update for the learned routes
	if len(e.Collect()) == 0 {
		t.Fatal("no triggered update")
	}

	quiet := testing.AllocsPerRun(20, func() {
		now++
		e.Tick(now)
		if len(e.Collect()) != 0 {
			t.Fatal("quiescent tick emitted")
		}
	})
	if quiet != 0 {
		t.Errorf("quiescent Tick allocates %v times, want 0", quiet)
	}

	packets := 0
	periodic := testing.AllocsPerRun(20, func() {
		now += 30
		e.Tick(now)
		packets = len(e.Collect())
	})
	perIface := (routes + 1 + MaxRTEsPerPacket - 1) / MaxRTEsPerPacket
	if packets != ifaces*perIface {
		t.Fatalf("periodic emission sent %d packets, want %d", packets, ifaces*perIface)
	}
	t.Logf("periodic emission: %d packets, %v allocations", packets, periodic)
	if limit := float64(packets + 2); periodic > limit {
		t.Errorf("periodic emission of %d packets allocates %v times, want <= %v", packets, periodic, limit)
	}
}

package ripng

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"taco/internal/bits"
	"taco/internal/ipv6"
)

// FuzzRIPngParse feeds arbitrary bytes to the RIPng wire decoder and
// holds the codec to its oracles:
//   - Parse never panics;
//   - every packet that parses survives Parse(p.Marshal()) unchanged;
//   - the caller-owned decode (parseAppend, which ReceiveDatagram
//     uses) returns the same packet or error as Parse, appended after a
//     non-empty reused buffer that it leaves untouched;
//   - WrapUDP is byte-identical to composing ipv6.BuildDatagram over
//     ipv6.MarshalUDP over Marshal, for 0, 1, 70 and 71 RTEs built from
//     the parsed entries, and UnwrapUDP inverts it.
func FuzzRIPngParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{CommandResponse, VersionRIPng, 0, 0})
	f.Add(WholeTableRequest().Marshal())
	f.Add(Packet{Command: CommandResponse, RTEs: []RTE{
		{Prefix: ipv6.MustParsePrefix("2001:db8::/32"), Tag: 0xbeef, Metric: 3},
		{Prefix: ipv6.MustParsePrefix("2001:db8:1::/48"), Metric: Infinity},
	}}.Marshal())
	nh := append([]byte{CommandResponse, VersionRIPng, 0, 0}, make([]byte, RTEBytes)...)
	nh[HeaderBytes+18], nh[HeaderBytes+19] = 200, NextHopMetric
	f.Add(nh)
	f.Add([]byte{CommandRequest, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)

		sentinel := RTE{Prefix: bits.MakePrefix(bits.FromWords(0x20010db8, 0xdead, 0, 0), 48), Tag: 9, Metric: 7}
		buf := make([]RTE, 1, 4)
		buf[0] = sentinel
		q, qerr := parseAppend(data, buf)
		if (err == nil) != (qerr == nil) || err != nil && err.Error() != qerr.Error() {
			t.Fatalf("Parse error %v, parseAppend error %v", err, qerr)
		}
		if err != nil {
			return
		}
		if len(q.RTEs) != 1+len(p.RTEs) || q.RTEs[0] != sentinel {
			t.Fatalf("parseAppend clobbered or lost the reused buffer: %+v", q.RTEs)
		}
		if q.Command != p.Command || !slices.Equal(q.RTEs[1:], p.RTEs) {
			t.Fatalf("parseAppend = %+v, Parse = %+v", q, p)
		}

		back, err := Parse(p.Marshal())
		if err != nil {
			t.Fatalf("Parse(Marshal(%+v)): %v", p, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("Parse(Marshal(p)) = %+v, want %+v", back, p)
		}

		src := bits.FromWords(0xfe800000, 0, 0, uint32(len(data)))
		for _, dst := range []ipv6.Addr{ipv6.AllRIPRouters, bits.FromWords(0xfe800000, 0, 1, 2)} {
			for _, n := range []int{0, 1, MaxRTEsPerPacket, MaxRTEsPerPacket + 1} {
				pkt := Packet{Command: p.Command}
				for i := 0; i < n; i++ {
					rte := sentinel
					if len(p.RTEs) > 0 {
						rte = p.RTEs[i%len(p.RTEs)]
					}
					pkt.RTEs = append(pkt.RTEs, rte)
				}
				got, err := WrapUDP(src, dst, pkt)
				if err != nil {
					t.Fatalf("WrapUDP(%d RTEs): %v", n, err)
				}
				seg, err := ipv6.MarshalUDP(src, dst, Port, Port, pkt.Marshal())
				if err != nil {
					t.Fatal(err)
				}
				want, err := ipv6.BuildDatagram(ipv6.Header{HopLimit: 255, Src: src, Dst: dst}, nil, ipv6.ProtoUDP, seg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("WrapUDP(%d RTEs) = %x, composed path %x", n, got, want)
				}
				from, un, err := UnwrapUDP(got)
				if err != nil {
					t.Fatalf("UnwrapUDP(WrapUDP(%d RTEs)): %v", n, err)
				}
				if from != src || !reflect.DeepEqual(un, pkt) {
					t.Fatalf("UnwrapUDP(WrapUDP(%+v)) = %s %+v", pkt, ipv6.FormatAddr(from), un)
				}
			}
		}
	})
}

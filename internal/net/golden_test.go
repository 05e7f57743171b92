package net

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// goldenCampaigns pins the SHA-256 of CampaignReport.WriteJSON for small
// fixed-seed mixed campaigns. Any change to a control-plane packet, byte
// or timer that reaches the report moves a digest, so a refactor or
// optimisation of the RIPng engine, its wire codec or the mesh must leave
// them all unchanged; only a deliberate behaviour change may re-record
// them. The 90-node scale-free graph has more stub prefixes than one
// packet carries, so its updates are split at the MTU. Each campaign
// runs at one and at four workers, which must reproduce the same digest.
var goldenCampaigns = []struct {
	kind   string
	size   int
	seed   uint64
	sha256 string
}{
	{"fattree", 4, 3, "8315096ad1fac99f0f588a46e71cbec737a0fbc09da45d0ab55152531955f345"},
	{"ring", 8, 5, "dc2d4d675a6268feda6f4c5c293a7924c61bc83bbe5282b39ff7ff2e25113849"},
	{"scalefree", 90, 11, "85e02b9684f4f8411195ff27a5077b02508457b89487758d62c8bfbf1d0d4edd"},
}

func TestGoldenCampaignDigests(t *testing.T) {
	for _, g := range goldenCampaigns {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-%d/workers=%d", g.kind, g.size, workers), func(t *testing.T) {
				m := mustMesh(t, g.kind, g.size, Options{Seed: g.seed, Mix: "mixed", Workers: workers})
				rep := RunCampaign(m, CampaignOptions{Flaps: 3, Partition: true, Crashes: 1, Storms: 1})
				var buf testWriter
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf)
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("report digest %s, want %s (verdict %s)", got, g.sha256, rep.Verdict)
				}
			})
		}
	}
}

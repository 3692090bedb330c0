package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// outcomeDigest is SHA-256 over everything an Outcome shows: its text
// report (header, metrics, notes), every series' name and points, and
// the plot window.
func outcomeDigest(t *testing.T, o *Outcome) string {
	t.Helper()
	h := sha256.New()
	if err := o.WriteText(h); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range o.Series {
		word(uint64(len(s.Name)))
		h.Write([]byte(s.Name))
		word(uint64(len(s.Points)))
		for _, p := range s.Points {
			word(uint64(p.T))
			word(math.Float64bits(p.V))
		}
	}
	word(uint64(o.PlotFrom))
	word(uint64(o.PlotTo))
	return hex.EncodeToString(h.Sum(nil))
}

// TestExperimentReportsPinned holds every registered experiment's
// report, series and plot window at seed 1, full scale, to SHA-256
// digests taken on 5ab70d9, before the experiments shared one run path,
// one wave probe and one set of config defaults. A digest that moves
// means an experiment now builds a different configuration or reads its
// runs differently.
func TestExperimentReportsPinned(t *testing.T) {
	want := map[string]string{
		"fig2-oneway":        "8f0bedd46f53fd462fd430cbcb35134fdbff99c37459787c102cf9317625c1e8",
		"increase-rule":      "5dec3b0a21e8ed074a3f139d6d723f16f70dd184c57ac783d75196897cda1e84",
		"oneway-smallpipe":   "c3d769640381a930f40fde5892c85170d013771723b1c6e028ea39b0c2a29c4d",
		"oneway-buffers":     "784bd1ebaf8a3291ce5bac200e19288b535888a316afcdd4c8b6e749a2f596ca",
		"fig3-tenconns":      "5b8a9f7cedda5959ccde29c7d7ed6f1994fdb838c1ff6375d8a32edf28a0ee20",
		"fig4-5":             "ed6464867df002d0f9dad48ec12b601446b303d724181656a82ab0f46585df2c",
		"fig6-7":             "b095ab5f4fa293e4f7e386645dd00ff90f187b0f96d58e752a915f153ac4d270",
		"fig8-fixed":         "e6c141f6e4c90e3ed464f4ad1f60fbaf75abb0a1ea446e712ac4dc11bf18a83b",
		"fig9-fixed":         "40096fe491bcdc8c16580aafddc6e9b371d7c82f1351c130ae988e105d3871c5",
		"zeroack-conjecture": "353175755dfc5d67ffbe88656d913ea0664931aae60b4efc5c3a3e4a12cece36",
		"mode-boundary":      "686f84795de597eee98a2fe5d1f8910ef1423a30dabee8b4faeb4dc7dc5cf0f1",
		"ack-compression":    "1a5ab0d3ea0d073e2d443aa22d52cb2c0e36af5ab6c99db7e990b571319949df",
		"delayed-ack":        "271450e08aa9a0bb17ebc0bcf214c5cc87cf251737495816f2998e3814f99e89",
		"four-switch":        "fdf844394ebed1e5300b42f487f7576d3e1286b50e4cd74c771c2ef9e42d7eb4",
		"unequal-rtt":        "efaadf7a4639cddfdc98ce07b083aae962ddf0cf3d6364899d0ba744cb732b24",
		"pacing-ablation":    "c4a688496a359757078b90daf7dfadc0f167d3265592d25c3fcec7f9899fde26",
		"parking-lot":        "85ad88966c0abead0d800e5c604a683a1dfd14f8eee94c141d0e9392b027773e",
		"congestion-wave":    "48ee0044aee89c934a98a41c63213f154104203376d34a81645ba35812c87e31",
		"wave-speed":         "ea96b98674422921fdf2902b68dea5bc6ce52fe12d264a8d4c63fb73cadea015",
		"mesh-wave":          "d9786e8e79cae5e55501f01eb80df7d38b5a9f4415d234a8448ffeb66c85a326",
		"reno":               "dccaaee2b68a03dab3865bb459d488107d80e98be2399a0ac2bc6dd0b799298b",
		"random-drop":        "84e15599e213e4f62d97fef867e88f1e8b8b498d8ea98cfe8d402ee43cd9fecb",
		"fair-queueing":      "00118f9d651c726aa66723c424299a09cd1494ef3eca78819a5913d6ada4a725",
		"red-sync":           "5f422e4101f44fab38e3d9d04bfa0a2db3f96f72fdbef664ddb2dc81b7c4fc13",
		"cross-traffic":      "7f4be93e183f7c9f75e69b194068b574507709b00a56d76e357e906d2207865c",
	}
	outs := RunAll(Options{Parallel: -1})
	if len(outs) != len(want) {
		t.Fatalf("RunAll returned %d outcomes, %d are pinned", len(outs), len(want))
	}
	for _, o := range outs {
		if got := outcomeDigest(t, o); got != want[o.ID] {
			t.Errorf("%s: sha256 %s, want %s", o.ID, got, want[o.ID])
		}
	}
}

package main

// Pinned rcadsim output: the report and the -trace file of flag sets that
// cover every topology, policy, adversary, victim rule and delay
// distribution, rate control, lossy links with ARQ, node failures with and
// without route repair, sealing and the replicate summary. Every digest
// was recorded before rcadsim compiled its flags into a scenario spec, and
// none has an update flag. The run manifest's fingerprint and the output
// file paths are masked: they name a run, they are not its outcome.

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var fingerprintField = regexp.MustCompile(`fingerprint=[0-9a-f]*`)

// pinnedDigest runs args with a -trace file (unless the set replicates)
// and returns the hex SHA-256 of the masked stdout followed by the trace.
func pinnedDigest(t *testing.T, args []string, traced bool) string {
	t.Helper()
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	args = append([]string(nil), args...)
	if traced {
		args = append(args, "-trace", trace)
	}
	for i, a := range args {
		if a == "-telemetry" {
			args[i+1] = filepath.Join(dir, args[i+1])
		}
	}
	stdout, err := runOutput(t, args)
	if err != nil {
		t.Fatalf("rcadsim %v: %v", args, err)
	}
	stdout = fingerprintField.ReplaceAllString(stdout, "fingerprint=*")
	stdout = strings.ReplaceAll(stdout, dir+string(filepath.Separator), "")
	h := sha256.New()
	h.Write([]byte(stdout))
	if traced {
		f, err := os.Open(trace)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		h.Write([]byte{0})
		if _, err := io.Copy(h, f); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

var pinnedRuns = []struct {
	name string
	args []string
	want string
}{
	{"default", nil, "ffba0307ba3b0bb26cbb551164e924b0ec444ad5b87dec0eb8de1d43a2fe3d36"},
	{"policy-rcad", []string{"-policy", "rcad", "-topo", "line", "-hops", "6", "-packets", "300"}, "8224d467a6dfa1336c901183af01d8f66a8b026eed9d90b0bb4223509b394b92"},
	{"policy-no-delay", []string{"-policy", "no-delay", "-topo", "line", "-hops", "6", "-packets", "300"}, "ff9f1d134d0a8aad6f0d46c38abb2c9a55f9536ef1179e6ae6b280777f5ed33e"},
	{"policy-delay-unlimited", []string{"-policy", "delay-unlimited", "-topo", "line", "-hops", "6", "-packets", "300"}, "dae428aca0e73099951a784ff8a907defd8bbb614332d406e05503cd84595a06"},
	{"policy-delay-droptail", []string{"-policy", "delay-droptail", "-topo", "line", "-hops", "6", "-packets", "300"}, "d0949a01db12f84e47618a52b0ef3c9b3263f84d0f3341dedf70c3cc8291d814"},
	{"adaptive-line8", []string{"-adversary", "adaptive", "-topo", "line", "-hops", "8", "-packets", "300"}, "ad9ebb979e1ada9cf8b791cf77efeaa61273526c0b0624875ef43eb6d9d6f90e"},
	{"path-aware-line8", []string{"-adversary", "path-aware", "-topo", "line", "-hops", "8", "-packets", "300"}, "f75af7f5c8cf9d9e8e86f60b126a576fe3810796981fb69a47d98b065fcf9dcb"},
	{"rate-control-figure1", []string{"-rate-control", "-packets", "200"}, "a3797aa57af10f072368a831c3d57806e2dbaa6d827f1510958c5f641ca5c3ad"},
	{"rate-control-one-hop", []string{"-rate-control", "-topo", "line", "-hops", "1", "-mean-delay", "1000", "-packets", "2000"}, "236934be80e918097421806a15f8cce511cf772ca42610ae321c49714b6b093b"},
	{"rate-control-line5-target", []string{"-rate-control", "-topo", "line", "-hops", "5", "-target-loss", "0.05", "-packets", "300"}, "e61b87dbec4d4839f5e6a7f9c8c678679fe63ce90aa3b00b7452a1ac26e753c1"},
	{"arq-frame-and-ack-loss", []string{"-topo", "line", "-hops", "5", "-link-loss", "0.1", "-ack-loss", "0.1", "-arq", "-packets", "200"}, "6abbd9d6c15b2c7ed9e0058ca49c03ffad7f907c47c834d5daba5a05c48fb582"},
	{"burst-loss-arq", []string{"-topo", "line", "-hops", "5", "-burst", "-burst-loss", "0.6", "-link-loss", "0.02", "-arq", "-packets", "200"}, "513d7f15a34d673792e52a04826ca650183c3fc425760eb23914239270f8b971"},
	{"grid-fail7", []string{"-topo", "grid", "-grid-w", "4", "-grid-h", "4", "-capacity", "4", "-fail", "7@150", "-packets", "120"}, "12e8addebe4388ec35628f11ef2d2100689059743a58fe538ac813cf1d12773a"},
	{"grid-fail7-repair", []string{"-topo", "grid", "-grid-w", "4", "-grid-h", "4", "-capacity", "4", "-fail", "7@150", "-route-repair", "-packets", "120"}, "9f0bb1e9d4fe0da52f1adcbf033474d4526e5367e887d8a66e206a2235a1c298"},
	{"no-delay-grid-fail11-repair", []string{"-topo", "grid", "-grid-w", "4", "-grid-h", "4", "-policy", "no-delay", "-interarrival", "10", "-fail", "11@250", "-route-repair", "-packets", "50"}, "9e557b1279ca15af1a9c471f1eb138c7ca7cbf3b0b539cd37daab9e5897fb5bd"},
	{"random-victim-pareto", []string{"-victim", "random", "-delay-dist", "pareto", "-packets", "200"}, "2b76a95f6a0a819bc902fe39b06e8dcfa225780ccc9d2fbd2138118823b1d4b6"},
	{"oldest-uniform", []string{"-victim", "oldest", "-delay-dist", "uniform", "-packets", "200"}, "c4f8effe856848b1f6f74c1ebaa50a93d7e9cae69828de681334164a56635c41"},
	{"longest-remaining-pareto", []string{"-victim", "longest-remaining", "-delay-dist", "pareto", "-packets", "200"}, "9c28f2ec0a363d3c03aa59c1ba7128c233d5ae799b0239c02720eb9da3f72920"},
	{"sealed", []string{"-seal", "-packets", "200"}, "921ee751a0eb9b0fa9f58b7c0c6d3272a2cfc14ac2c2d06cab55b772c4a50806"},
	{"random-field", []string{"-topo", "random", "-packets", "200"}, "9df78d0fa12555b3e302654484445a90f3054625db8a1adccd0d45d19eed23bd"},
	{"rate-control-arq-fail-repair-grid", []string{"-topo", "grid", "-grid-w", "4", "-grid-h", "4", "-rate-control", "-link-loss", "0.1", "-ack-loss", "0.1", "-arq", "-fail", "7@150", "-route-repair", "-packets", "120"}, "521a292cdcafb6a13f0efc99dea884e663a07fcfc9b8788ab97a72a1158feb19"},
	{"droptail-capacity4-fast", []string{"-policy", "delay-droptail", "-capacity", "4", "-interarrival", "1", "-packets", "200"}, "4779d5d310f7ac49a84b8d4fee72fa4e2251093aa948a2abba9f2e2d803725ea"},
	{"capacity3-random-seed9", []string{"-capacity", "3", "-victim", "random", "-seed", "9", "-packets", "200"}, "5eacb9119d2c0a4f2b900f15871938ff321d795df8a9f781253753c14ede7f0b"},
	{"unlimited-pareto-grid-sampled", []string{"-policy", "delay-unlimited", "-delay-dist", "pareto", "-topo", "grid", "-grid-w", "5", "-grid-h", "5", "-telemetry", "tel.jsonl", "-sample-every", "5", "-packets", "200"}, "6042e2048116c63fd2a5cd8b1c01a6555174674f73adcc47969239e9501e664d"},
}

var pinnedReplicateRuns = []struct {
	name string
	args []string
	want string
}{
	{"figure1-x3", []string{"-replicate", "3", "-packets", "200"}, "ef43d3a692d53f6dd502e4ecb9203d0fbf4ccf7d37e0990f573fc47e339ec054"},
	{"rate-control-x4", []string{"-rate-control", "-topo", "line", "-hops", "5", "-replicate", "4", "-packets", "300"}, "511bdf2a8393cc549e3cd0469d70f6ee670e359b37620933e3b065f6e1a62808"},
	{"lossy-failing-grid-arq-repair-x3", []string{"-topo", "grid", "-grid-w", "4", "-grid-h", "4", "-link-loss", "0.1", "-arq", "-fail", "7@150", "-route-repair", "-replicate", "3", "-packets", "120"}, "2f6dff5769b6e031639ac7aa223b1fb98208356299efa0600bc81a49bd017176"},
}

// TestPinnedReports: each flag set prints the same report and writes the
// same trace as when it was pinned; each replicated set prints the same
// report and replicate summary.
func TestPinnedReports(t *testing.T) {
	for _, c := range pinnedRuns {
		t.Run(c.name, func(t *testing.T) {
			if got := pinnedDigest(t, c.args, true); got != c.want {
				t.Errorf("digest %s, pinned %s", got, c.want)
			}
		})
	}
	for _, c := range pinnedReplicateRuns {
		t.Run(c.name, func(t *testing.T) {
			if got := pinnedDigest(t, c.args, false); got != c.want {
				t.Errorf("digest %s, pinned %s", got, c.want)
			}
		})
	}
}

// TestPinnedRateControlNeedsRCAD: rate control under another policy is
// rejected before anything is printed.
func TestPinnedRateControlNeedsRCAD(t *testing.T) {
	stdout, err := runOutput(t, []string{"-policy", "delay-droptail", "-rate-control"})
	if err == nil || stdout != "" {
		t.Fatalf("rcadsim -policy delay-droptail -rate-control: err %v, stdout %q", err, stdout)
	}
}

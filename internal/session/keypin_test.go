package session

import (
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

// TestPersistKeysPinned pins the exact persist keys of a few catalog
// builds. Stores filled by earlier binaries are addressed by these
// bytes, so a change to the workload identity (name, scale, options,
// profile fingerprint) or to the machine tail must be deliberate: it
// turns every stored record into a miss.
func TestPersistKeysPinned(t *testing.T) {
	const tail = "|rf=8,128,2,2,1,|fu=1,1,8,|lat=0,1,1,1,5,34,34,0,1,;0,2,1,1,2,9,9,0,1,;0,4,4,4,7,20,20,0,0,;1,2,2,"
	rf := arch.DefaultRegFile()
	rf.VLen = 32
	build := func(short string, opts vcomp.Options) *workload.Workload {
		t.Helper()
		w, err := workload.ByShort(short).BuildOpts(1e-4, opts)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"tf", Solo(build("tf", vcomp.Options{})),
			"mode=1,|ws=flo52@0.0001+fpf546bc2976fd7d4a,|policy=default|ctx=1," + tail + "|mem=50,4,1,0,0,0,0,|flags=ffff|iw=1,|stop=0,0,"},
		{"sp-nohoist", Solo(build("sp", vcomp.Options{NoHoist: true}), WithMemLatency(80)),
			"mode=1,|ws=spmv@0.0001+nohoist+fp6c43f644c5d239ca,|policy=default|ctx=1," + tail + "|mem=80,4,1,0,0,0,0,|flags=ffff|iw=1,|stop=0,0,"},
		{"gm-vlen32", Solo(build("gm", vcomp.Options{RegFile: rf}), WithRegFile(rf)),
			"mode=1,|ws=gemm@0.0001+rf8.32.2+fpcb9988fd04ffd366,|policy=default|ctx=1,|rf=8,32,2,2,1,|fu=1,1,8,|lat=0,1,1,1,5,34,34,0,1,;0,2,1,1,2,9,9,0,1,;0,4,4,4,7,20,20,0,0,;1,2,2,|mem=50,4,1,0,0,0,0,|flags=ffff|iw=1,|stop=0,0,"},
		{"queue", Queue([]*workload.Workload{build("sw", vcomp.Options{}), build("hy", vcomp.Options{})}, WithContexts(2)),
			"mode=3,|ws=swm256@0.0001+fp5a9f43184ed7b0d7,hydro2d@0.0001+fp9166352ab37fe92c,|policy=default|ctx=2," + tail + "|mem=50,4,1,0,0,0,0,|flags=ffff|iw=1,|stop=0,0,"},
		{"queue-spans", Queue([]*workload.Workload{build("sw", vcomp.Options{}), build("hy", vcomp.Options{})}, WithContexts(2), WithSpans()),
			"mode=3,|ws=swm256@0.0001+fp5a9f43184ed7b0d7,hydro2d@0.0001+fp9166352ab37fe92c,|policy=default|ctx=2," + tail + "|mem=50,4,1,0,0,0,0,|flags=ftff|iw=1,|stop=0,0,"},
	}
	for _, tc := range cases {
		p, err := tc.spec.prepare()
		if err != nil {
			t.Fatal(err)
		}
		key, ok := tc.spec.persistKey(&p)
		if !ok {
			t.Fatalf("%s: spec unexpectedly unpersistable", tc.name)
		}
		if key != tc.want {
			t.Errorf("%s: persist key\n got  %s\n want %s", tc.name, key, tc.want)
		}
	}
}

package session

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"mtvec/internal/arch"
	"mtvec/internal/core"
	"mtvec/internal/sched"
	"mtvec/internal/vcomp"
	"mtvec/internal/workload"
)

// keySupply is the supply part of a memo key, decoded.
type keySupply struct {
	mode uint64
	ws   []uint64
}

// decodeSupply reads a memo key's mode and workload list back (see
// RunSpec.memoKey) and returns the rest of the key. A key whose list
// decodes back to the spec's list cannot be shared by a spec with
// another list, which is what the length prefix is for.
func decodeSupply(key string) (keySupply, string, bool) {
	b := []byte(key)
	ok := true
	uv := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			ok = false
			return 0
		}
		b = b[n:]
		return v
	}
	var k keySupply
	k.mode = uv()
	for n := uv(); ok && n > 0; n-- {
		k.ws = append(k.ws, uv())
	}
	return k, string(b), ok
}

// supplyOf is the supply a spec's memo key must encode.
func supplyOf(spec RunSpec, ids *idTable) keySupply {
	ids.mu.Lock()
	defer ids.mu.Unlock()
	k := keySupply{mode: uint64(spec.mode)}
	for _, w := range spec.workloads {
		k.ws = append(k.ws, ids.id(w))
	}
	return k
}

func (k keySupply) equal(o keySupply) bool {
	return k.mode == o.mode && slices.Equal(k.ws, o.ws)
}

// memoIdentity is what a memo key must identify: the spec's artifacts
// by session identity, its policy identity, and the normalized plan
// minus what does not reach a Report (the shape's display name,
// observers, the progress stride) and the policy value, which the
// policy identity names.
type memoIdentity struct {
	supply     keySupply
	policyName string
	policyInst uint64
	cfg        core.Config
	stop       core.Stop
	spans      bool
}

func identityOf(spec RunSpec, p *plan, ids *idTable) memoIdentity {
	id := memoIdentity{supply: supplyOf(spec, ids), policyName: p.policyName, cfg: p.cfg, stop: p.stop, spans: p.spans}
	if p.policyInst != nil {
		ids.mu.Lock()
		id.policyInst = ids.id(p.policyInst)
		ids.mu.Unlock()
	}
	id.cfg.Name, id.cfg.Policy, id.cfg.Observers, id.cfg.ProgressStride = "", nil, nil, 0
	return id
}

func (m memoIdentity) equal(o memoIdentity) bool {
	return m.supply.equal(o.supply) && m.policyName == o.policyName && m.policyInst == o.policyInst &&
		reflect.DeepEqual(m.cfg, o.cfg) && m.stop == o.stop && m.spans == o.spans
}

// fuzzArtifacts are the shared inputs fuzzed specs draw from: five
// workloads (three builds and two wrappings of one compiled kernel
// under one schedule) and two custom policy instances.
type fuzzArtifacts struct {
	ws       []*workload.Workload
	policies []sched.Policy
}

// fuzzSpec decodes a spec from data: a mode, a workload list of 1–4
// entries, then options until the bytes run out. Option arguments range
// over invalid values too.
func fuzzSpec(data []byte, a *fuzzArtifacts) RunSpec {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	mode, n := next()%3, 1+next()%4
	ws := make([]*workload.Workload, n)
	for i := range ws {
		ws[i] = a.ws[next()%len(a.ws)]
	}
	var spec RunSpec
	switch mode {
	case 0:
		spec = Solo(ws[0])
	case 1:
		spec = Group(ws[0], ws[1:])
	case 2:
		spec = Queue(ws)
	}
	policies := []string{"unfair", "roundrobin", "everycycle", "lru", "bogus"}
	presets := arch.Presets()
	var opts []Option
	for len(data) > 0 {
		op, x, y := next()%19, next(), next()
		switch op {
		case 0:
			opts = append(opts, WithContexts(x%6))
		case 1:
			opts = append(opts, WithMemLatency(x%4*25))
		case 2:
			opts = append(opts, WithScalarLatency(x%3))
		case 3:
			opts = append(opts, WithXbar(x%4))
		case 4:
			opts = append(opts, WithPolicy(policies[x%len(policies)]))
		case 5:
			opts = append(opts, WithPolicyInstance(a.policies[x%len(a.policies)]))
		case 6:
			opts = append(opts, WithMemPorts(x%3, y%3))
		case 7:
			opts = append(opts, WithMemBanks(1<<(x%4), y%3))
		case 8:
			opts = append(opts, WithVLen(x%4*32))
		case 9:
			opts = append(opts, WithBankPorts(x%3, y%3))
		case 10:
			opts = append(opts, WithMaxCycles(core.Cycle(x%3*1000)))
		case 11:
			opts = append(opts, WithMaxThread0Insts(int64(x%3*100)))
		case 12:
			opts = append(opts, WithSpans())
		case 13:
			opts = append(opts, WithIssueWidth(x%3))
		case 14:
			opts = append(opts, WithDualScalar(x%2 == 1))
		case 15:
			opts = append(opts, WithArch(presets[x%len(presets)]))
		case 16:
			rf := arch.DefaultRegFile()
			rf.VRegsPerBank = 1 << (x % 3)
			rf.PartitionPerContext = y%2 == 1
			opts = append(opts, WithRegFile(rf))
		case 17:
			opts = append(opts, WithProgressStride(core.Cycle(x%3*64)))
		case 18:
			cfg := core.DefaultConfig()
			cfg.DisableFastForward = x%2 == 1
			cfg.Contexts = 1 + y%2
			opts = append(opts, WithConfig(cfg))
		}
	}
	return spec.With(opts...)
}

// FuzzMemoKeyInjective: two specs built from fuzzed options get equal
// memo keys exactly when their normalized plans and artifact
// identities are equal. The second spec is the first's bytes with one
// byte flipped, so both directions get exercised: a flip that changes
// nothing a Report depends on (an overridden option, another spelling
// of the same machine) must keep the key, and any other must move it.
func FuzzMemoKeyInjective(f *testing.F) {
	w, err := buildOnce()
	if err != nil {
		f.Fatal(err)
	}
	a := &fuzzArtifacts{ws: []*workload.Workload{w}, policies: []sched.Policy{&sched.LRU{}, &sched.LRU{}}}
	for _, short := range []string{"sw", "hy"} {
		w, err := workload.ByShort(short).Build(testScale)
		if err != nil {
			f.Fatal(err)
		}
		a.ws = append(a.ws, w)
	}
	c, compiledSched := sweepKernel(f), []vcomp.Invocation{{Unit: 1, N: 64}, {Unit: 0, N: 128}}
	for range 2 {
		w, err := workload.FromCompiled(c, compiledSched)
		if err != nil {
			f.Fatal(err)
		}
		a.ws = append(a.ws, w)
	}
	f.Add([]byte{0, 0, 0, 1, 2, 0}, uint8(0), uint16(0))
	f.Add([]byte{2, 3, 0, 1, 2, 0, 0, 4, 0, 1, 1, 0, 3, 3, 0}, uint8(1), uint16(4))
	f.Add([]byte{1, 2, 0, 2, 1, 2, 0, 15, 1, 0, 8, 2, 0}, uint8(2), uint16(9))
	f.Add([]byte{2, 2, 3, 4, 3, 1, 2, 0, 5, 1, 0}, uint8(7), uint16(3))
	f.Add([]byte{2, 1, 1, 2, 17, 1, 0, 12, 0, 0}, uint8(5), uint16(5))
	f.Add([]byte{0, 0, 2, 18, 1, 1, 16, 1, 1, 0, 2, 0}, uint8(3), uint16(11))
	ids := &idTable{}
	f.Fuzz(func(t *testing.T, data []byte, flip uint8, pos uint16) {
		other := slices.Clone(data)
		if len(other) > 0 {
			other[int(pos)%len(other)] ^= flip
		}
		s1, s2 := fuzzSpec(data, a), fuzzSpec(other, a)
		p1, err1 := s1.prepare()
		p2, err2 := s2.prepare()
		if err1 != nil || err2 != nil {
			return
		}
		k1, k2 := s1.memoKey(&p1, ids), s2.memoKey(&p2, ids)
		if got := decodeSupplyOK(k1, s1, ids); got != "" {
			t.Fatal(got)
		}
		same := identityOf(s1, &p1, ids).equal(identityOf(s2, &p2, ids))
		if (k1 == k2) != same {
			t.Fatalf("keys equal: %v, identities equal: %v\n spec 1 % x\n spec 2 % x\n plan 1 %+v\n plan 2 %+v",
				k1 == k2, same, data, other, p1, p2)
		}
	})
}

// decodeSupplyOK reports how key's supply fails to decode to spec's,
// or "" when it decodes.
func decodeSupplyOK(key string, spec RunSpec, ids *idTable) string {
	got, _, ok := decodeSupply(key)
	if !ok {
		return "memo key's supply does not decode"
	}
	if want := supplyOf(spec, ids); !got.equal(want) {
		return "memo key's supply decodes to another supply"
	}
	return ""
}

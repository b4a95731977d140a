package sim

import "repro/internal/fingerprint"

// PredictSuccessor computes the fingerprint that e(C) would have — and the
// post-state of the stepping processor — without materializing e(C). The
// explorer uses this to recognize already-visited successors and skip
// Clone/Apply for them entirely; only genuinely new configurations are
// materialized.
//
// Prediction mirrors Apply's validity checks (applicability, single-send,
// self-send and range limits, decision irrevocability). ok=false means the
// event is inapplicable or the transition is irregular in a way Apply
// reports as an error; callers must fall back to Apply so that buggy
// protocols fail with exactly the same errors the string-keyed engine
// reports. A successful prediction is exact: Apply(proto, c, e) yields a
// configuration whose Fingerprint equals the predicted digest (the sim
// tests assert this over explored spaces).
func PredictSuccessor(proto Protocol, c *Config, e Event) (fingerprint.Digest, State, bool) {
	if int(e.Proc) < 0 || int(e.Proc) >= c.N() {
		return fingerprint.Digest{}, nil, false
	}
	base := c.Fingerprint()
	p := e.Proc
	stateSalt := saltStateBase + uint64(p)

	switch e.Type {
	case Fail:
		if c.States[p].Kind() == Failed {
			return fingerprint.Digest{}, nil, false
		}
		post := FailedStateFor(p)
		fp := base.Sub(c.stateD[p].Mixed(stateSalt)).Add(StateDigest(post).Mixed(stateSalt))
		n := c.N()
		for q := 0; q < n; q++ {
			if ProcID(q) == p {
				continue
			}
			m := Message{
				ID:     MsgID{From: p, To: ProcID(q), Seq: c.seq[int(p)*n+q] + 1},
				Notice: true,
			}
			fp = fp.Add(m.computeDigest().Mixed(saltBufferBase + uint64(q)))
		}
		return c.omissionShiftClear(fp, p), post, true

	case SendStepEvent:
		if c.States[p].Kind() != Sending {
			return fingerprint.Digest{}, nil, false
		}
		s2, envs := proto.SendStep(p, c.States[p])
		if len(envs) > 1 || checkTransition(c.States[p], s2) != nil {
			return fingerprint.Digest{}, nil, false
		}
		fp := base.Sub(c.stateD[p].Mixed(stateSalt)).Add(StateDigest(s2).Mixed(stateSalt))
		for _, env := range envs {
			if env.To == p || int(env.To) < 0 || int(env.To) >= c.N() {
				return fingerprint.Digest{}, nil, false
			}
			m := Message{
				ID:      MsgID{From: p, To: env.To, Seq: c.seq[int(p)*c.N()+int(env.To)] + 1},
				Payload: env.Payload,
			}
			fp = fp.Add(m.computeDigest().Mixed(saltBufferBase + uint64(env.To)))
		}
		return fp, s2, true

	case Deliver:
		if c.States[p].Kind() != Receiving {
			return fingerprint.Digest{}, nil, false
		}
		m, ok := c.Buffers[p].Find(e.Msg)
		if !ok {
			return fingerprint.Digest{}, nil, false
		}
		s2 := proto.Receive(p, c.States[p], m)
		if checkTransition(c.States[p], s2) != nil {
			return fingerprint.Digest{}, nil, false
		}
		fp := base.Sub(c.stateD[p].Mixed(stateSalt)).Add(StateDigest(s2).Mixed(stateSalt))
		fp = fp.Sub(m.Digest().Mixed(saltBufferBase + uint64(p)))
		return c.omissionShiftClear(fp, p), s2, true

	case Omit:
		if c.States[p].Kind() == Failed {
			return fingerprint.Digest{}, nil, false
		}
		m, ok := c.Buffers[p].Find(e.Msg)
		if !ok {
			return fingerprint.Digest{}, nil, false
		}
		fp := base.Sub(m.Digest().Mixed(saltBufferBase + uint64(p)))
		return c.omissionShiftOmit(fp, p), c.States[p], true
	}
	return fingerprint.Digest{}, nil, false
}

// Predicted is a Predictor result: the successor configuration's
// fingerprint, the visible decision of the stepping processor's
// post-state, and — for sending steps that emit a message — the identity
// the sent message would get. These are the post-state facts explorers and
// scheme enumeration need per skipped edge.
type Predicted struct {
	CfgFP    fingerprint.Digest
	Decision Decision
	Decided  bool
	// Sent/SentID describe the message a predicted sending step emits
	// (sequence number included). Failure notices are not reported here;
	// only SendStepEvent predictions set these fields.
	Sent   bool
	SentID MsgID
}

// predictEntry caches one transition's outcome, keyed by the digests of
// its inputs. Transition functions are pure (Init/Receive/SendStep depend
// only on their arguments — the ccvet purity analyzer enforces it), so a
// transition's post-state digest, decision, and emitted envelope are
// functions of (processor, state digest, message digest) and can be
// memoized across the millions of configurations that repeat them.
type predictEntry struct {
	valid   bool // transition passes Apply's validity checks
	postD   fingerprint.Digest
	dec     Decision
	decided bool
	// sending steps: the emitted envelope, if any (destination and the
	// payload's canonical key — enough to reconstruct the sent message's
	// digest once the sequence number is known).
	hasEnv     bool
	envTo      ProcID
	payloadKey string
}

// Predictor is a transition cache for fingerprint prediction. It memoizes
// Receive/SendStep outcomes by input digests, so repeated transitions cost
// one map probe instead of a protocol callback plus state hashing. Like
// fingerprint dedup itself, the cache identifies inputs by 128-bit digest:
// a hash collision could return the wrong cached outcome, which is why
// explorers use it only in fingerprint mode (never under verified or
// string dedup). It is not safe for concurrent use; each walk owns one.
type Predictor struct {
	m map[fingerprint.Digest]predictEntry
}

// NewPredictor returns an empty transition cache.
func NewPredictor() *Predictor {
	return &Predictor{m: make(map[fingerprint.Digest]predictEntry)}
}

// deliverCacheKey identifies a Receive transition by processor, state
// digest, and message digest.
func deliverCacheKey(p ProcID, stateD, msgD fingerprint.Digest) fingerprint.Digest {
	h := fingerprint.New()
	h.WriteUint64(1<<32 | uint64(uint32(p)))
	h.WriteUint64(stateD.Lo)
	h.WriteUint64(stateD.Hi)
	h.WriteUint64(msgD.Lo)
	h.WriteUint64(msgD.Hi)
	return h.Sum()
}

// sendCacheKey identifies a SendStep transition by processor and state
// digest.
func sendCacheKey(p ProcID, stateD fingerprint.Digest) fingerprint.Digest {
	h := fingerprint.New()
	h.WriteUint64(2<<32 | uint64(uint32(p)))
	h.WriteUint64(stateD.Lo)
	h.WriteUint64(stateD.Hi)
	return h.Sum()
}

// Predict computes what PredictSuccessor computes, through the transition
// cache: the fingerprint e(C) would have, plus the post-state's visible
// decision. ok=false means the event is inapplicable or irregular and the
// caller must fall back to Apply for the authoritative error.
func (pr *Predictor) Predict(proto Protocol, c *Config, e Event) (Predicted, bool) {
	if int(e.Proc) < 0 || int(e.Proc) >= c.N() {
		return Predicted{}, false
	}
	base := c.Fingerprint()
	p := e.Proc
	stateSalt := saltStateBase + uint64(p)

	switch e.Type {
	case Fail, Omit:
		// Failure and omission transitions are protocol-independent and
		// already cheap (no Receive/SendStep callback); no cache entry
		// needed.
		fp, post, ok := PredictSuccessor(proto, c, e)
		if !ok {
			return Predicted{}, false
		}
		d, decided := post.Decided()
		return Predicted{CfgFP: fp, Decision: d, Decided: decided}, true

	case SendStepEvent:
		if c.States[p].Kind() != Sending {
			return Predicted{}, false
		}
		stateD := c.stateD[p]
		key := sendCacheKey(p, stateD)
		ent, ok := pr.m[key]
		if !ok {
			ent = computeSendEntry(proto, p, c.States[p])
			pr.m[key] = ent
		}
		if !ent.valid || (ent.hasEnv && int(ent.envTo) >= c.N()) {
			return Predicted{}, false
		}
		out := Predicted{Decision: ent.dec, Decided: ent.decided}
		fp := base.Sub(stateD.Mixed(stateSalt)).Add(ent.postD.Mixed(stateSalt))
		if ent.hasEnv {
			seq := c.seq[int(p)*c.N()+int(ent.envTo)] + 1
			md := msgDigestParts(p, ent.envTo, seq, false, ent.payloadKey)
			fp = fp.Add(md.Mixed(saltBufferBase + uint64(ent.envTo)))
			out.Sent = true
			out.SentID = MsgID{From: p, To: ent.envTo, Seq: seq}
		}
		out.CfgFP = fp
		return out, true

	case Deliver:
		if c.States[p].Kind() != Receiving {
			return Predicted{}, false
		}
		m, found := c.Buffers[p].Find(e.Msg)
		if !found {
			return Predicted{}, false
		}
		stateD := c.stateD[p]
		md := m.Digest()
		key := deliverCacheKey(p, stateD, md)
		ent, ok := pr.m[key]
		if !ok {
			ent = computeDeliverEntry(proto, p, c.States[p], m)
			pr.m[key] = ent
		}
		if !ent.valid {
			return Predicted{}, false
		}
		fp := base.Sub(stateD.Mixed(stateSalt)).Add(ent.postD.Mixed(stateSalt))
		fp = fp.Sub(md.Mixed(saltBufferBase + uint64(p)))
		return Predicted{CfgFP: c.omissionShiftClear(fp, p), Decision: ent.dec, Decided: ent.decided}, true
	}
	return Predicted{}, false
}

// Materialize is Apply through the transition cache: it builds the real
// successor configuration but reuses the cached post-state digest, so the
// dominant cost of materialization — rehashing the stepped processor's
// state — is paid once per distinct transition instead of once per edge.
// Any event the cache marks invalid or inapplicable is routed through
// Apply so the caller sees the authoritative error.
func (pr *Predictor) Materialize(proto Protocol, c *Config, e Event) (*Config, Effect, error) {
	if int(e.Proc) < 0 || int(e.Proc) >= c.N() {
		return Apply(proto, c, e)
	}
	p := e.Proc

	switch e.Type {
	case Fail, Omit:
		// Failed-state digests are cheap (no key strings) and omissions
		// touch no state at all; the plain path is already allocation-lean.
		return Apply(proto, c, e)

	case SendStepEvent:
		if c.States[p].Kind() != Sending {
			return Apply(proto, c, e)
		}
		c.Fingerprint() // warm stateD so cache keys and setStateD apply
		stateD := c.stateD[p]
		key := sendCacheKey(p, stateD)
		ent, ok := pr.m[key]
		if !ok {
			ent = computeSendEntry(proto, p, c.States[p])
			pr.m[key] = ent
		}
		if !ent.valid || (ent.hasEnv && int(ent.envTo) >= c.N()) {
			return Apply(proto, c, e)
		}
		s2, envs := proto.SendStep(p, c.States[p])
		next := c.Clone()
		next.setStateD(p, s2, ent.postD)
		eff := Effect{Event: e}
		for _, env := range envs {
			m := Message{
				ID:      MsgID{From: p, To: env.To, Seq: next.nextSeq(p, env.To)},
				Payload: env.Payload,
			}.Memoized()
			next.addMessage(env.To, m)
			eff.Sent = append(eff.Sent, m)
		}
		return next, eff, nil

	case Deliver:
		if c.States[p].Kind() != Receiving {
			return Apply(proto, c, e)
		}
		m, found := c.Buffers[p].Find(e.Msg)
		if !found {
			return Apply(proto, c, e)
		}
		c.Fingerprint()
		stateD := c.stateD[p]
		key := deliverCacheKey(p, stateD, m.Digest())
		ent, ok := pr.m[key]
		if !ok {
			ent = computeDeliverEntry(proto, p, c.States[p], m)
			pr.m[key] = ent
		}
		if !ent.valid {
			return Apply(proto, c, e)
		}
		s2 := proto.Receive(p, c.States[p], m)
		next := c.Clone()
		next.setStateD(p, s2, ent.postD)
		next.removeMessage(p, m)
		next.noteDeliver(p)
		return next, Effect{Event: e, Received: &m}, nil
	}
	return Apply(proto, c, e)
}

// computeSendEntry runs one SendStep and distills it into a cache entry,
// mirroring Apply's validity checks exactly.
func computeSendEntry(proto Protocol, p ProcID, s State) predictEntry {
	s2, envs := proto.SendStep(p, s)
	if len(envs) > 1 || checkTransition(s, s2) != nil {
		return predictEntry{}
	}
	ent := predictEntry{valid: true, postD: StateDigest(s2)}
	ent.dec, ent.decided = s2.Decided()
	for _, env := range envs {
		if env.To == p || int(env.To) < 0 {
			return predictEntry{}
		}
		ent.hasEnv = true
		ent.envTo = env.To
		ent.payloadKey = env.Payload.Key()
	}
	return ent
}

// computeDeliverEntry runs one Receive and distills it into a cache entry.
func computeDeliverEntry(proto Protocol, p ProcID, s State, m Message) predictEntry {
	s2 := proto.Receive(p, s, m)
	if checkTransition(s, s2) != nil {
		return predictEntry{}
	}
	ent := predictEntry{valid: true, postD: StateDigest(s2)}
	ent.dec, ent.decided = s2.Decided()
	return ent
}

package experiment

import (
	"slices"
	"sort"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/radio"
	"teleadjust/internal/stats"
)

// ScopeStudyResult evaluates the one-to-many extension: reconfiguring
// whole code subtrees with scoped floods versus per-member unicast control
// versus what a network-wide Drip flood would cost.
type ScopeStudyResult struct {
	Scenario string
	// Operations is the number of scoped operations performed.
	Operations int
	// Members accumulates subtree sizes addressed.
	Members int
	// Acked accumulates members acknowledged in time.
	Acked int
	// Coverage holds per-operation coverage samples.
	Coverage *stats.Series
	// TxPerMember is the scoped flood's transmissions per addressed member.
	TxPerMember float64
	// UnicastTxPerMember is the same work done with per-member SendControl.
	UnicastTxPerMember float64
}

// ScopeOpts tunes a scope study.
type ScopeOpts struct {
	Warmup time.Duration
	// Operations is how many subtrees to reconfigure (largest first).
	Operations int
	// Settle is the time allowed per operation.
	Settle time.Duration
}

// DefaultScopeOpts returns a moderate configuration.
func DefaultScopeOpts() ScopeOpts {
	return ScopeOpts{
		Warmup:     7 * time.Minute,
		Operations: 3,
		Settle:     90 * time.Second,
	}
}

// RunScopeStudy reconfigures the Operations largest depth-1 code subtrees,
// once via scoped floods and (on a twin network) once via per-member
// unicast, reporting coverage and cost.
func RunScopeStudy(scn Scenario, opts ScopeOpts) (*ScopeStudyResult, error) {
	res := &ScopeStudyResult{Scenario: scn.Name, Coverage: &stats.Series{}}

	// Pass 1: scoped floods.
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		return nil, err
	}
	net.Start()
	if err := net.Run(opts.Warmup); err != nil {
		return nil, err
	}
	scopes, memberSets := topScopes(net.SinkTele(), opts.Operations)
	txBase := net.controlTx()
	for i, scope := range scopes {
		done := false
		var r core.ScopeResult
		if _, err := net.SinkTele().SendScopeControl(scope, "reconfig", func(sr core.ScopeResult) {
			r = sr
			done = true
		}); err != nil {
			return nil, err
		}
		if err := net.Run(opts.Settle); err != nil {
			return nil, err
		}
		if !done {
			continue
		}
		res.Operations++
		res.Members += len(memberSets[i])
		res.Acked += len(r.Acked)
		res.Coverage.Add(r.Coverage())
	}
	if res.Members > 0 {
		res.TxPerMember = float64(net.controlTx()-txBase) / float64(res.Members)
	}

	// Pass 2: the same member sets via per-member unicast on a twin
	// network (same seed ⇒ same topology; tree details may differ).
	net2, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		return nil, err
	}
	net2.Start()
	if err := net2.Run(opts.Warmup); err != nil {
		return nil, err
	}
	tx2Base := net2.controlTx()
	addressed := 0
	for _, members := range memberSets {
		for _, id := range members {
			if _, err := net2.SinkTele().SendControl(id, "reconfig", nil); err != nil {
				continue
			}
			addressed++
			if err := net2.Run(12 * time.Second); err != nil {
				return nil, err
			}
		}
	}
	if err := net2.Run(30 * time.Second); err != nil {
		return nil, err
	}
	if addressed > 0 {
		res.UnicastTxPerMember = float64(net2.controlTx()-tx2Base) / float64(addressed)
	}
	return res, nil
}

// topScopes returns the n largest depth-1 subtree scopes in the
// controller's registry along with their member sets.
func topScopes(sink *core.Engine, n int) ([]core.PathCode, [][]radio.NodeID) {
	reg := sink.Registry()
	type subtree struct {
		scope   core.PathCode
		members []radio.NodeID
	}
	byPrefix := make(map[string]*subtree)
	for id, info := range reg {
		if info.Code.Len() < 2 {
			continue
		}
		// Depth-1 scope: the sink's code (1 bit) plus the first position
		// field. The field width varies; group by the full code of
		// depth-1 nodes instead: find each node's depth-1 ancestor prefix
		// by trying prefixes of increasing length present in the
		// registry.
		prefix := info.Code
		for _, other := range reg {
			if other.Code.Len() < prefix.Len() && other.Code.Len() >= 2 &&
				other.Code.IsPrefixOf(info.Code) {
				prefix = other.Code
			}
		}
		key := prefix.String()
		st, ok := byPrefix[key]
		if !ok {
			st = &subtree{scope: prefix}
			byPrefix[key] = st
		}
		st.members = append(st.members, id)
	}
	list := make([]*subtree, 0, len(byPrefix))
	for _, st := range byPrefix {
		// Members arrive in registry map order; the unicast pass addresses
		// them in this order, so fix it.
		slices.Sort(st.members)
		list = append(list, st)
	}
	sort.Slice(list, func(i, j int) bool {
		if len(list[i].members) != len(list[j].members) {
			return len(list[i].members) > len(list[j].members)
		}
		return list[i].scope.String() < list[j].scope.String()
	})
	if len(list) > n {
		list = list[:n]
	}
	scopes := make([]core.PathCode, len(list))
	members := make([][]radio.NodeID, len(list))
	for i, st := range list {
		scopes[i] = st.scope
		members[i] = st.members
	}
	return scopes, members
}

package server

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
)

const (
	// codeWrongRole: the request needs a different role than this node
	// holds — a mutation on a replica, a promote on a node with no
	// follower, a replication poll at a non-primary. Permanent until an
	// operator changes the topology, so clients should re-point, not retry.
	codeWrongRole = "wrong_role"
	// codeStaleEpoch: this node's view of a collection's history has been
	// superseded by a promoted peer's higher epoch. The node is fenced —
	// reads still work, every mutation answers 409 with this code.
	codeStaleEpoch = "stale_epoch"
)

// PromoteResponse answers POST /v1/promote.
type PromoteResponse struct {
	// Role is the node's role after the call: always "primary" on success.
	Role Role `json:"role"`
	// AlreadyPrimary is true when the call found nothing to do — the node
	// was promoted earlier (the recorded collections are replayed) or was
	// started as a primary.
	AlreadyPrimary bool `json:"already_primary,omitempty"`
	// Collections records, per collection, the epoch adopted and whether
	// the final drain against the old primary completed (false is the
	// normal case when promotion follows a primary crash).
	Collections []replica.Promotion `json:"collections"`
	// OldPrimary is the base URL of the primary this node was following.
	OldPrimary string `json:"old_primary,omitempty"`
	// FencedOldPrimary counts collections for which the post-promotion
	// fencing probe confirmed the old primary saw the new epoch and
	// answered 409 stale_epoch. Zero when the old primary is unreachable
	// (it will fence itself on its first feed or re-bootstrap contact).
	FencedOldPrimary int `json:"fenced_old_primary"`
}

// handlePromote turns a replica into the primary: the follower drains what
// it can of the old primary's feed, folds every collection, adopts
// epoch+1 durably, and the server flips its role so mutations and the
// replication feed start being served here. The call is idempotent — a
// second POST replays the recorded promotions — and synchronous: when it
// returns 200, acknowledged state is durable under the new epoch.
func (s *Server) handlePromote(r *http.Request, _ *obs.Trace, _ *obs.Cost) (any, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.Role() == RolePrimary {
		if s.follower != nil && s.follower.Promoted() {
			return &PromoteResponse{
				Role: RolePrimary, AlreadyPrimary: true,
				Collections:      s.follower.Promotions(),
				OldPrimary:       s.follower.Primary(),
				FencedOldPrimary: 0,
			}, nil
		}
		return &PromoteResponse{Role: RolePrimary, AlreadyPrimary: true,
			Collections: []replica.Promotion{}}, nil
	}
	if s.follower == nil || s.ingest == nil {
		return nil, &httpError{status: http.StatusForbidden, code: codeWrongRole,
			msg: fmt.Sprintf("promote requires a replica with a local store; this node is a %s", s.Role())}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.PromoteWait)
	defer cancel()
	promos, err := s.follower.Promote(ctx)
	if err != nil {
		return nil, &httpError{status: http.StatusConflict,
			msg: fmt.Sprintf("promote failed: %v", err)}
	}
	s.setRole(RolePrimary)
	s.stats.promotions.Inc()
	fenced := s.fenceOldPrimary(promos)
	s.access.Info("server: promoted to primary",
		"old_primary", s.follower.Primary(),
		"collections", len(promos),
		"fenced_old_primary", fenced)
	return &PromoteResponse{
		Role:             RolePrimary,
		Collections:      promos,
		OldPrimary:       s.follower.Primary(),
		FencedOldPrimary: fenced,
	}, nil
}

// fenceOldPrimary sends one feed poll per promoted collection to the old
// primary, carrying the new epoch. If the old primary is alive, seeing an
// epoch above its own fences it (every subsequent mutation there answers
// 409 stale_epoch) — closing the split-brain window where a client still
// pointed at the old node gets its writes silently acknowledged into a dead
// lineage. An unreachable old primary is the expected case (promotion
// usually follows a crash) and not an error: it fences itself the moment it
// is restarted as a follower or polled with the new epoch.
func (s *Server) fenceOldPrimary(promos []replica.Promotion) int {
	base := s.follower.Primary()
	if base == "" || len(promos) == 0 {
		return 0
	}
	client := &http.Client{Timeout: 2 * time.Second}
	fenced := 0
	for _, p := range promos {
		u := base + "/v1/replication/wal?collection=" + url.QueryEscape(p.Collection) +
			"&epoch=" + strconv.FormatUint(p.Epoch, 10) + "&from=0"
		resp, err := client.Get(u)
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusConflict {
			fenced++
		}
	}
	return fenced
}

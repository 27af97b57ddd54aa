package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
)

// MigrationReport is what one backend evacuation returns: which sessions
// moved where, which were already gone, and which failed.
type MigrationReport struct {
	Backend string            `json:"backend"`
	Moved   map[string]string `json:"moved"`             // session id -> new backend
	Skipped []string          `json:"skipped,omitempty"` // finished or already gone
	Errors  []string          `json:"errors,omitempty"`
}

// handleMigrate runs an explicit evacuation: POST /admin/migrate?backend=NAME
// marks the backend ineligible and moves every live session it holds to its
// new ring owner. The call is synchronous — a 200 means every session is
// re-homed (or listed under errors).
func (g *Gateway) handleMigrate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("backend")
	if name == "" {
		g.writeError(w, http.StatusBadRequest, "missing ?backend=NAME")
		return
	}
	rep, err := g.MigrateBackend(r.Context(), name)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	status := http.StatusOK
	if len(rep.Errors) > 0 {
		status = http.StatusBadGateway
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(rep)
}

// MigrateBackend evacuates every live session off the named backend:
//
//  1. Mark it evacuating — the ring stops routing new ownership to it, so
//     every session's Owner() answer is already its post-migration home.
//  2. Enumerate its live sessions (/admin/sessions).
//  3. Per session: hold gateway traffic for it, export at a step boundary
//     (retrying 409 "busy" until the queue drains), import the snapshot
//     bytes into the session's new owner, release the hold.
//
// Export removes the session from the source before Import lands it at the
// target; the hold is what keeps that window invisible to clients. A second
// evacuation of the same backend is a no-op (the first pass owns it).
func (g *Gateway) MigrateBackend(ctx context.Context, name string) (*MigrationReport, error) {
	src, ok := g.ring.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("no backend %q in the ring", name)
	}
	g.mu.Lock()
	if g.evacuated[name] {
		g.mu.Unlock()
		return &MigrationReport{Backend: name, Moved: map[string]string{}}, nil
	}
	g.evacuated[name] = true
	g.mu.Unlock()

	g.ring.SetEvacuating(name, true)
	g.met.migrations.Add(1)

	ids, err := g.listSessions(ctx, src.Addr)
	if err != nil {
		return nil, fmt.Errorf("enumerating sessions on %s: %w", name, err)
	}
	rep := &MigrationReport{Backend: name, Moved: map[string]string{}}
	for _, id := range ids {
		target, moveErr := g.migrateSession(ctx, src.Addr, name, id)
		switch {
		case moveErr == errSessionGone:
			rep.Skipped = append(rep.Skipped, id)
		case moveErr != nil:
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", id, moveErr))
		default:
			rep.Moved[id] = target
			g.met.migratedSessions.Add(1)
		}
	}
	return rep, nil
}

// errSessionGone marks a session that finished or left between enumeration
// and export — nothing to move.
var errSessionGone = fmt.Errorf("session already gone")

// migrateSession moves one session and returns the receiving backend's name.
func (g *Gateway) migrateSession(ctx context.Context, srcAddr, srcName, id string) (string, error) {
	release := g.beginMigration(id)
	defer release()

	snap, err := g.exportSession(ctx, srcAddr, id)
	if err != nil {
		return "", err
	}
	// The session is now nowhere but in our hands: import it into the first
	// willing backend in ring order (the owner, then fallbacks — a target
	// that is full or draining answers non-200 and the next one is tried).
	var lastErr error
	for _, t := range g.ring.Route(id) {
		if t.Name == srcName {
			continue
		}
		if err := g.importSession(ctx, t.Addr, snap); err != nil {
			lastErr = fmt.Errorf("import into %s: %w", t.Name, err)
			continue
		}
		return t.Name, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no import target in the ring")
	}
	return "", lastErr
}

// beginMigration installs the hold that parks gateway traffic for a session
// while its handoff is in flight; the returned func releases it.
func (g *Gateway) beginMigration(id string) func() {
	g.mu.Lock()
	ch := make(chan struct{})
	g.migrating[id] = ch
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		if g.migrating[id] == ch {
			delete(g.migrating, id)
		}
		g.mu.Unlock()
		close(ch)
	}
}

// waitMigration blocks while the session has a handoff in flight.
func (g *Gateway) waitMigration(ctx context.Context, id string) error {
	for {
		g.mu.Lock()
		ch, ok := g.migrating[id]
		g.mu.Unlock()
		if !ok {
			return nil
		}
		g.met.holds.Add(1)
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// exportSession POSTs the export endpoint until the session is quiescent: a
// 409 means batches are still queued (the shard will step them in
// microseconds to milliseconds), so retry under the shared full-jitter
// backoff until exportRetry runs out.
func (g *Gateway) exportSession(ctx context.Context, addr, id string) ([]byte, error) {
	deadline := time.Now().Add(exportRetry)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			addr+"/admin/sessions/"+id+"/export", nil)
		if err != nil {
			return nil, err
		}
		resp, err := g.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("export: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			resp.Body.Close()
			if err != nil {
				return nil, fmt.Errorf("export body: %w", err)
			}
			return data, nil
		case http.StatusNotFound, http.StatusGone:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil, errSessionGone
		case http.StatusConflict:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("export: session stayed busy past %v", exportRetry)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(retryConfig{base: exportBackoffBase, max: exportBackoffMax}.backoff(attempt)):
			}
		default:
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return nil, fmt.Errorf("export: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
	}
}

// importSession POSTs snapshot bytes into a backend.
func (g *Gateway) importSession(ctx context.Context, addr string, snap []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		addr+"/admin/sessions/import", bytes.NewReader(snap))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// listSessions enumerates a backend's live sessions.
func (g *Gateway) listSessions(ctx context.Context, addr string) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/admin/sessions", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var list serve.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Sessions, nil
}

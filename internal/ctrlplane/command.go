package ctrlplane

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Command is one controller actuation in flight over the control plane.
// Commands are epoch-numbered against the target region (so a command
// issued against a pre-quarantine view is fenced after re-admission),
// idempotent (a re-sent command that already applied only re-acks), and
// ack-tracked (the supervisor re-sends on timeout, then aborts).
type Command struct {
	ID     int
	Op     plan.OpID
	Kind   string
	Target topology.SiteID
	Sites  []topology.SiteID
	Epoch  int

	apply    func() error
	issuedAt vclock.Time
	sentAt   vclock.Time
	attempts int
	applied  bool
	acked    bool
	done     bool
}

// Aborted describes a command the supervisor gave up on: Applied tells
// the controller whether the actuation actually ran (ack lost) or never
// reached the site (command lost), which decides retry vs rollback.
type Aborted struct {
	Op      plan.OpID
	Kind    string
	Applied bool
}

// SendCommand issues one epoch-numbered command whose apply closure runs
// when (if) the command reaches its target site. The target is the
// command's coordination site: the first (lowest) site of the new
// placement. At most one command may be in flight per operator.
func (p *Plane) SendCommand(op plan.OpID, kind string, sites []topology.SiteID, apply func() error) error {
	if c, ok := p.pendingByOp[op]; ok && !c.done {
		return fmt.Errorf("ctrlplane: command %d still in flight for op %d", c.ID, op)
	}
	if len(sites) == 0 {
		return fmt.Errorf("ctrlplane: command for op %d has no target sites", op)
	}
	target := sites[0]
	for _, s := range sites[1:] {
		if s < target {
			target = s
		}
	}
	now := p.sched.Now()
	cmd := &Command{
		ID:       len(p.cmds),
		Op:       op,
		Kind:     kind,
		Target:   target,
		Sites:    append([]topology.SiteID(nil), sites...),
		Epoch:    p.epochOfSite(target),
		apply:    apply,
		issuedAt: now,
	}
	p.cmds = append(p.cmds, cmd)
	p.pendingByOp[op] = cmd
	for _, s := range cmd.Sites {
		if r := p.RegionOfSite(s); r >= 0 && p.ctrlDown[r] {
			p.wrongActions++
			break
		}
	}
	if p.obs != nil {
		p.obs.Registry().Counter("wasp_ctrl_commands_total").Add(1)
		p.obs.Emit("ctrl.command",
			obs.Int("cmd", cmd.ID),
			obs.Int("op", int(op)),
			obs.String("kind", kind),
			obs.Int("target", int(target)),
			obs.String("sites", fmt.Sprint(cmd.Sites)),
			obs.Int("epoch", cmd.Epoch))
	}
	p.send(cmd, now)
	return nil
}

func (p *Plane) epochOfSite(s topology.SiteID) int {
	if r := p.RegionOfSite(s); r >= 0 {
		return p.epoch[r]
	}
	return 0
}

// send launches (or re-launches) a command toward its target.
func (p *Plane) send(cmd *Command, now vclock.Time) {
	cmd.sentAt = now
	delay := p.net.Latency(p.cfg.ControllerSite, cmd.Target)
	if cmd.Target != p.cfg.ControllerSite {
		delay += p.extraDelay
	}
	p.sched.At(now+delay, func(at vclock.Time) { p.deliverCommand(cmd, at) })
}

// blocked reports whether a control-plane message toward (or from) a site
// is lost at delivery time: the site's region has an active control
// partition, or the data path itself is blacked out.
func (p *Plane) blocked(site topology.SiteID, from, to topology.SiteID, now vclock.Time) bool {
	if site == p.cfg.ControllerSite {
		return false
	}
	if r := p.RegionOfSite(site); r >= 0 && p.ctrlDown[r] {
		return true
	}
	return !p.net.Reachable(from, to, now)
}

// deliverCommand is the site-side arrival: fence against the region's
// current epoch, apply once, ack back. A command lost on a blocked path
// simply never arrives — the supervisor's ack timeout covers it.
func (p *Plane) deliverCommand(cmd *Command, now vclock.Time) {
	if cmd.done {
		return
	}
	if p.blocked(cmd.Target, p.cfg.ControllerSite, cmd.Target, now) {
		return
	}
	if cmd.Epoch != p.epochOfSite(cmd.Target) {
		if p.obs != nil {
			p.obs.Emit("ctrl.command_fenced",
				obs.Int("cmd", cmd.ID),
				obs.Int("op", int(cmd.Op)),
				obs.Int("epoch", cmd.Epoch),
				obs.Int("current_epoch", p.epochOfSite(cmd.Target)))
		}
		p.resolve(cmd)
		return
	}
	if !cmd.applied {
		cmd.applied = true
		if err := cmd.apply(); err != nil {
			if p.obs != nil {
				p.obs.Emit("ctrl.command_failed",
					obs.Int("cmd", cmd.ID),
					obs.Int("op", int(cmd.Op)),
					obs.String("err", err.Error()))
			}
			p.resolve(cmd)
			return
		}
	}
	delay := p.net.Latency(cmd.Target, p.cfg.ControllerSite)
	if cmd.Target != p.cfg.ControllerSite {
		delay += p.extraDelay
	}
	p.sched.At(now+delay, func(at vclock.Time) { p.deliverAck(cmd, at) })
}

// deliverAck is the controller-side ack arrival. An ack lost on the way
// back leaves the command pending; the supervisor re-sends and the
// idempotent arrival path re-acks without re-applying.
func (p *Plane) deliverAck(cmd *Command, now vclock.Time) {
	if cmd.done || cmd.acked {
		return
	}
	if p.blocked(cmd.Target, cmd.Target, p.cfg.ControllerSite, now) {
		return
	}
	cmd.acked = true
	if p.obs != nil {
		p.obs.Emit("ctrl.command_acked",
			obs.Int("cmd", cmd.ID),
			obs.Int("op", int(cmd.Op)),
			obs.Dur("rtt", time.Duration(now-cmd.issuedAt)))
	}
	p.resolve(cmd)
}

func (p *Plane) resolve(cmd *Command) {
	cmd.done = true
	if c, ok := p.pendingByOp[cmd.Op]; ok && c == cmd {
		delete(p.pendingByOp, cmd.Op)
	}
}

// Supervise re-sends every command whose ack is overdue and aborts those
// past the retry budget, returning the aborted set for the controller's
// retry/rollback ledger. Commands are visited in issue order.
func (p *Plane) Supervise(now vclock.Time) []Aborted {
	var aborted []Aborted
	for _, cmd := range p.cmds {
		if cmd.done || cmd.acked {
			continue
		}
		if time.Duration(now-cmd.sentAt) < commandTimeout {
			continue
		}
		cmd.attempts++
		if cmd.attempts > commandRetries {
			if p.obs != nil {
				p.obs.Emit("ctrl.command_timeout",
					obs.Int("cmd", cmd.ID),
					obs.Int("op", int(cmd.Op)),
					obs.Int("attempts", cmd.attempts),
					obs.Bool("applied", cmd.applied))
			}
			p.resolve(cmd)
			aborted = append(aborted, Aborted{Op: cmd.Op, Kind: cmd.Kind, Applied: cmd.applied})
			continue
		}
		if p.obs != nil {
			p.obs.Registry().Counter("wasp_ctrl_command_retries_total").Add(1)
			p.obs.Emit("ctrl.command_retry",
				obs.Int("cmd", cmd.ID),
				obs.Int("op", int(cmd.Op)),
				obs.Int("attempt", cmd.attempts))
		}
		p.send(cmd, now)
	}
	return aborted
}

// CommandInFlight reports whether an un-resolved command exists for op:
// the controller must not stack a second actuation on it.
func (p *Plane) CommandInFlight(op plan.OpID) bool {
	c, ok := p.pendingByOp[op]
	return ok && !c.done
}

// UnackedCommands counts commands still awaiting an ack (aborted ones are
// resolved). The chaos invariant "no un-acked command at run end" checks
// this is zero after the supervisor has drained.
func (p *Plane) UnackedCommands() int {
	n := 0
	for _, cmd := range p.cmds {
		if !cmd.done && !cmd.acked {
			n++
		}
	}
	return n
}

// Package mem models the off-chip DRAM and the edge memory controllers
// that answer the data caches' miss traffic over the Raw memory dynamic
// network (§3.3, §8.2 of the paper). One Controller (a shared DRAM bank)
// serves the whole chip through one port per mesh row on the east edge,
// mirroring the Raw system's edge memory ports. Each port keeps its own
// message framing state: words from different rows never interleave
// within a message, but different ports deliver concurrently.
package mem

import "repro/internal/raw"

// Controller is the DRAM bank plus its per-row edge ports.
type Controller struct {
	// Latency is the DRAM access time in cycles between a request
	// completing arrival and the first response word entering the chip.
	Latency int
	// ServiceInterval is the minimum number of cycles between starting
	// two requests on one port (bank occupancy); 0 means fully pipelined.
	ServiceInterval int
	// ExtraLatency, if non-nil, returns additional access latency in
	// force when a request is served — the hook fault injection uses for
	// DRAM latency spikes (wire to Chip.FaultDRAMPenalty).
	ExtraLatency func() int

	width int
	// pages holds DRAM in dense pages keyed by addr>>pageShift, each
	// allocated at its first write; a word never written reads 0.
	pages map[raw.Word]*page

	// Stats
	Reads, Writes int64
}

// port is the raw.DynDevice bound to one boundary link.
type port struct {
	c        *Controller
	buf      []raw.Word
	queue    [][]raw.Word
	nextFree int64
	inflight []response
}

// A DRAM page is 4,096 words, so a cache line never straddles two pages.
const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]raw.Word

type response struct {
	due   int64
	words []raw.Word
}

// NewController builds a controller for a chip of the given mesh width
// (needed to address read replies) with the given DRAM latency.
func NewController(meshWidth, latency int) *Controller {
	return &Controller{
		Latency: latency,
		width:   meshWidth,
		pages:   make(map[raw.Word]*page),
	}
}

// Peek reads a word directly from DRAM.
func (c *Controller) Peek(addr raw.Word) raw.Word {
	if pg := c.pages[addr>>pageShift]; pg != nil {
		return pg[addr&pageMask]
	}
	return 0
}

// PokeWords writes a sequence starting at addr; addresses wrap at 2^32.
func (c *Controller) PokeWords(addr raw.Word, words []raw.Word) {
	for len(words) > 0 {
		pg := c.pages[addr>>pageShift]
		if pg == nil {
			pg = new(page)
			c.pages[addr>>pageShift] = pg
		}
		n := copy(pg[addr&pageMask:], words)
		words = words[n:]
		addr += raw.Word(n)
	}
}

// NewPort returns a raw.DynDevice serving this bank on one edge link.
func (c *Controller) NewPort() raw.DynDevice { return &port{c: c} }

// Attach connects the controller to the east edge of every row of chip —
// the standard placement used by the router.
func Attach(chip *raw.Chip, latency int) *Controller {
	cfg := chip.Config()
	c := NewController(cfg.Width, latency)
	for y := 0; y < cfg.Height; y++ {
		chip.AttachDynDevice(y*cfg.Width+cfg.Width-1, raw.DirE, raw.DynMemory, c.NewPort())
	}
	return c
}

// NextDue implements raw.Due. With no partial frame, no queued request
// and no in-flight response, Tick with no arrivals mutates nothing (the
// nextFree comparison alone cannot change state), so an idle port has no
// due cycle: the cache-resident steady state, which lets windows form
// with the memory system attached. Otherwise every cycle is due.
func (p *port) NextDue(cycle int64) int64 {
	if len(p.buf)+len(p.queue)+len(p.inflight) != 0 {
		return cycle
	}
	return -1
}

// Tick implements raw.DynDevice for one edge port.
func (p *port) Tick(cycle int64, arrived []raw.Word) []raw.Word {
	p.buf = append(p.buf, arrived...)
	for len(p.buf) > 0 {
		_, _, plen := raw.DecodeDynHeader(p.buf[0])
		if len(p.buf) < 1+plen {
			break
		}
		msg := append([]raw.Word(nil), p.buf[:1+plen]...)
		p.buf = p.buf[1+plen:]
		p.queue = append(p.queue, msg)
	}
	// Start queued requests subject to the service interval.
	for len(p.queue) > 0 && cycle >= p.nextFree {
		msg := p.queue[0]
		p.queue = p.queue[1:]
		p.serve(cycle, msg)
		p.nextFree = cycle + int64(p.c.ServiceInterval)
	}
	// Release responses that are due.
	var out []raw.Word
	keep := p.inflight[:0]
	for _, r := range p.inflight {
		if r.due <= cycle {
			out = append(out, r.words...)
		} else {
			keep = append(keep, r)
		}
	}
	p.inflight = keep
	return out
}

func (p *port) serve(cycle int64, msg []raw.Word) {
	c := p.c
	op, tile := raw.DecodeMemCmd(msg[1])
	addr := msg[2]
	lat := int64(c.Latency)
	if c.ExtraLatency != nil {
		lat += int64(c.ExtraLatency())
	}
	switch op {
	case raw.MemCmdRead:
		c.Reads++
		words := make([]raw.Word, 2+raw.CacheLineWords)
		words[0] = raw.DynHeader(tile%c.width, tile/c.width, 1+raw.CacheLineWords)
		words[1] = addr
		if pg := c.pages[addr>>pageShift]; pg != nil {
			copy(words[2:], pg[addr&pageMask:])
		}
		p.inflight = append(p.inflight, response{due: cycle + lat, words: words})
	case raw.MemCmdWrite:
		c.Writes++
		c.PokeWords(addr, msg[3:3+raw.CacheLineWords])
	}
}

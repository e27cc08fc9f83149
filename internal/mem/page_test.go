package mem

import (
	"testing"

	"repro/internal/raw"
)

// TestPagedDRAM pins the page-backed store's semantics: pokes split
// across pages and wrap at 2^32, reads of never-written words return 0
// and allocate nothing, and a write-back allocates its page.
func TestPagedDRAM(t *testing.T) {
	// request builds one memory-network request from tile 0.
	request := func(op int, addr raw.Word, data ...raw.Word) []raw.Word {
		msg := []raw.Word{raw.DynHeader(4, 0, 2+len(data)), raw.MemCmd(op, 0), addr}
		return append(msg, data...)
	}
	line := []raw.Word{11, 12, 13, 14, 15, 16, 17, 18}
	cases := []struct {
		name string
		do   func(t *testing.T, c *Controller)
		want [][2]raw.Word // {address, value} pairs to Peek
		// pages is the page count afterwards.
		pages int
	}{
		{
			name: "poke straddles a page boundary",
			do: func(t *testing.T, c *Controller) {
				c.PokeWords(pageWords-2, []raw.Word{1, 2, 3, 4})
			},
			want: [][2]raw.Word{
				{pageWords - 3, 0}, {pageWords - 2, 1}, {pageWords - 1, 2},
				{pageWords, 3}, {pageWords + 1, 4}, {pageWords + 2, 0},
			},
			pages: 2,
		},
		{
			name: "poke spans three pages",
			do: func(t *testing.T, c *Controller) {
				words := make([]raw.Word, pageWords+2)
				for i := range words {
					words[i] = raw.Word(100 + i)
				}
				c.PokeWords(7*pageWords-1, words)
			},
			want: [][2]raw.Word{
				{7*pageWords - 2, 0}, {7*pageWords - 1, 100}, {7 * pageWords, 101},
				{8*pageWords - 1, 100 + pageWords}, {8 * pageWords, 101 + pageWords},
				{8*pageWords + 1, 0},
			},
			pages: 3,
		},
		{
			name: "poke wraps past 2^32",
			do: func(t *testing.T, c *Controller) {
				c.PokeWords(0xffff_fffe, []raw.Word{5, 6, 7})
			},
			want:  [][2]raw.Word{{0xffff_fffd, 0}, {0xffff_fffe, 5}, {0xffff_ffff, 6}, {0, 7}, {1, 0}},
			pages: 2,
		},
		{
			name: "peek of a never-written address",
			do:   func(t *testing.T, c *Controller) {},
			want: [][2]raw.Word{{0, 0}, {0x0010_0b00, 0}, {0xffff_ffff, 0}},
		},
		{
			name: "read of a never-written line",
			do: func(t *testing.T, c *Controller) {
				out := c.NewPort().Tick(0, request(raw.MemCmdRead, 0x0030_0040))
				if len(out) != 2+raw.CacheLineWords || out[1] != 0x0030_0040 {
					t.Fatalf("reply %v", out)
				}
				for _, w := range out[2:] {
					if w != 0 {
						t.Fatalf("reply %v, want a zero line", out)
					}
				}
			},
			want: [][2]raw.Word{{0x0030_0040, 0}},
		},
		{
			name: "write-back into a never-poked page",
			do: func(t *testing.T, c *Controller) {
				c.PokeWords(0x0010_0000, []raw.Word{9})
				c.NewPort().Tick(0, request(raw.MemCmdWrite, 0x0030_0ff8, line...))
			},
			want: [][2]raw.Word{
				{0x0010_0000, 9}, {0x0030_0ff7, 0}, {0x0030_0ff8, 11},
				{0x0030_0fff, 18}, {0x0030_1000, 0},
			},
			pages: 2,
		},
		{
			name: "read returns a poked line",
			do: func(t *testing.T, c *Controller) {
				c.PokeWords(pageWords-raw.CacheLineWords, line)
				out := c.NewPort().Tick(0, request(raw.MemCmdRead, pageWords-raw.CacheLineWords))
				for i, w := range line {
					if out[2+i] != w {
						t.Fatalf("reply %v, want line %v", out, line)
					}
				}
			},
			want:  [][2]raw.Word{{pageWords - 1, 18}, {pageWords, 0}},
			pages: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(4, 0)
			tc.do(t, c)
			for _, w := range tc.want {
				if got := c.Peek(w[0]); got != w[1] {
					t.Errorf("Peek(%#x) = %d, want %d", w[0], got, w[1])
				}
			}
			if len(c.pages) != tc.pages {
				t.Errorf("%d pages allocated, want %d", len(c.pages), tc.pages)
			}
		})
	}
}

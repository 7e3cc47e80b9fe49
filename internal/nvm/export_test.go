package nvm

import "fmt"

// CheckPageTables reports the first way the cache's page tables and its
// CLOCK rings disagree: every ring page must sit at tables[id][block], in
// the shard shardOf picks for it; every table entry must be in exactly one
// ring, at its own coordinates; and Pages must count the table entries.
func (c *PageCache) CheckPageTables() error {
	rings := make(map[*page]int)
	for i := range c.shards {
		s := &c.shards[i]
		for _, pg := range s.ring {
			if c.shardOf(pg.id, pg.block) != s {
				return fmt.Errorf("page (%d,%d) is in shard %d's ring, not the one shardOf picks", pg.id, pg.block, i)
			}
			if got := c.lookup(pg.id, pg.block); got != pg {
				return fmt.Errorf("page (%d,%d) is in shard %d's ring but its table entry is %p", pg.id, pg.block, i, got)
			}
			rings[pg]++
		}
	}
	var entries int
	for id, t := range c.tables {
		for b, pg := range t {
			if pg == nil {
				continue
			}
			entries++
			if pg.id != uint32(id) || pg.block != int64(b) {
				return fmt.Errorf("table entry (%d,%d) holds page (%d,%d)", id, b, pg.id, pg.block)
			}
			if rings[pg] != 1 {
				return fmt.Errorf("table entry (%d,%d) is in %d rings", id, b, rings[pg])
			}
		}
	}
	if got := c.Pages(); got != entries {
		return fmt.Errorf("Pages() = %d, but the tables hold %d pages", got, entries)
	}
	return nil
}

package datasets

import (
	"fmt"
	"sync/atomic"
)

// Download is the §1 "freely downloadable by anyone" path the tests drive;
// no product route calls it yet.

// Download records an access (freely downloadable by anyone, §1) and
// resolves the dataset's location.
func (c *Catalog) Download(name string) (string, error) {
	c.mu.RLock()
	d, ok := c.entries[name]
	c.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("datasets: no dataset %q", name)
	}
	atomic.AddInt64(&c.downloads, 1)
	return c.ids.Resolve(d.ARK)
}

// DownloadCount reports how many downloads the catalog has recorded.
func (c *Catalog) DownloadCount() int64 { return atomic.LoadInt64(&c.downloads) }

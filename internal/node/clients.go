package node

import (
	"errors"
	"flag"
	"strings"

	"blobseer/internal/bsfs"
	"blobseer/internal/core"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/namespace"
	"blobseer/internal/obs"
	"blobseer/internal/pmanager"
	"blobseer/internal/provider"
	"blobseer/internal/repair"
	"blobseer/internal/rpc"
	"blobseer/internal/vmanager"
)

// Endpoints is a deployment as a client sees it: addresses only.
type Endpoints struct {
	VM              []string // version-manager shards, in shard order
	PM              string   // provider manager
	NS              string   // namespace manager
	Meta            []string // metadata providers (the DHT ring)
	MetaReplication int      // DHT replication level
}

// SplitAddrs parses a comma-separated address list, dropping blanks:
// "," and " " name no address at all.
func SplitAddrs(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' })
}

// ConnFlags registers the connection flags every client binary takes
// (-vmanager -pmanager -namespace -meta -meta-replication -meta-cache).
// Call the result after fs is parsed: it returns the endpoints they
// name and the node-cache size.
func ConnFlags(fs *flag.FlagSet) func() (Endpoints, int, error) {
	vm := fs.String("vmanager", "127.0.0.1:7001", "comma-separated version manager shard addresses (shard order)")
	pm := fs.String("pmanager", "127.0.0.1:7002", "provider manager address")
	ns := fs.String("namespace", "127.0.0.1:7003", "namespace manager address")
	meta := fs.String("meta", "127.0.0.1:7101", "comma-separated metadata provider addresses")
	mrepl := fs.Int("meta-replication", 1, "DHT replication level")
	mcache := fs.Int("meta-cache", -1, "immutable-node cache entries (<0 default, 0 off)")
	return func() (Endpoints, int, error) {
		ep := Endpoints{VM: SplitAddrs(*vm), PM: *pm, NS: *ns, Meta: SplitAddrs(*meta), MetaReplication: *mrepl}
		if len(ep.VM) == 0 {
			return ep, 0, errors.New("-vmanager: no addresses")
		}
		return ep, *mcache, nil
	}
}

// Clients is the client stack over one deployment: the DHT-backed
// metadata store and relocation overlay, built once, plus constructors
// for every client that rides on them and on Pool.
type Clients struct {
	Endpoints Endpoints
	Pool      *rpc.Pool
	MetaStore mdtree.Store
	// Overlay shares the metadata DHT: relocation records are tiny KV
	// entries under their own key prefix.
	Overlay *repair.Overlay
	// Tracer records the spans of every BLOB client built here (nil =
	// none); its sampling policy is the caller's.
	Tracer *obs.Tracer
}

// Connect builds the client stack for ep over pool. Nothing is dialed
// until a client is used.
func Connect(pool *rpc.Pool, ep Endpoints) *Clients {
	kv := dht.NewClient(dht.NewRing(ep.Meta, dht.DefaultVnodes), pool, ep.MetaReplication)
	return &Clients{Endpoints: ep, Pool: pool, MetaStore: mdtree.NewDHTStore(kv), Overlay: repair.NewOverlay(kv)}
}

// VM returns a client over every version-manager shard.
func (c *Clients) VM() *vmanager.Client { return vmanager.NewClient(c.Pool, c.Endpoints.VM...) }

// PM returns a provider-manager client.
func (c *Clients) PM() *pmanager.Client { return pmanager.NewClient(c.Pool, c.Endpoints.PM) }

// NS returns a namespace-manager client.
func (c *Clients) NS() *namespace.Client { return namespace.NewClient(c.Pool, c.Endpoints.NS) }

// Core returns a BLOB client. host is "" for a dedicated client node or
// the label of the provider it is co-deployed with; cache sizes its
// metadata node cache.
func (c *Clients) Core(host string, cache int) *core.Client {
	return core.NewClient(core.Config{
		Pool:          c.Pool,
		VMAddrs:       c.Endpoints.VM,
		PMAddr:        c.Endpoints.PM,
		MetaStore:     c.MetaStore,
		Host:          host,
		MetaCacheSize: cache,
		Overlay:       c.Overlay,
		Tracer:        c.Tracer,
	})
}

// BSFS returns a file-system client over cl; cfg carries the tunables
// (block size, replication, pipeline windows), its Core and NS are set
// here.
func (c *Clients) BSFS(cl *core.Client, cfg bsfs.Config) (*bsfs.FS, error) {
	cfg.Core, cfg.NS = cl, c.NS()
	return bsfs.New(cfg)
}

// Repair returns a repair engine (scanner and executor) over the stack;
// cache sizes the scan path's node cache.
func (c *Clients) Repair(cache int) *repair.Engine {
	return repair.New(repair.Config{
		VM:      c.VM(),
		PM:      c.PM(),
		Prov:    provider.NewClient(c.Pool),
		Meta:    mdtree.MaybeCache(c.MetaStore, cache),
		Overlay: c.Overlay,
	})
}

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
// (-vmanager -pmanager -namespace -meta -meta-replication). Call the
// result after fs is parsed: it returns the endpoints they name.
func ConnFlags(fs *flag.FlagSet) func() (Endpoints, error) {
	vm := fs.String("vmanager", "127.0.0.1:7001", "comma-separated version manager shard addresses (shard order)")
	pm := fs.String("pmanager", "127.0.0.1:7002", "provider manager address")
	ns := fs.String("namespace", "127.0.0.1:7003", "namespace manager address")
	meta := fs.String("meta", "127.0.0.1:7101", "comma-separated metadata provider addresses")
	mrepl := fs.Int("meta-replication", 1, "DHT replication level")
	return func() (Endpoints, error) {
		ep := Endpoints{VM: SplitAddrs(*vm), PM: *pm, NS: *ns, Meta: SplitAddrs(*meta), MetaReplication: *mrepl}
		if len(ep.VM) == 0 {
			return ep, errors.New("-vmanager: no addresses")
		}
		return ep, nil
	}
}

// Clients is the client stack over one deployment: the DHT-backed
// metadata store, built once, plus constructors for every client that
// rides on it and on Pool.
type Clients struct {
	Endpoints Endpoints
	Pool      *rpc.Pool
	MetaStore mdtree.Store
	// Tracer records the spans of every BLOB client built here (nil =
	// none); its sampling policy is the caller's.
	Tracer *obs.Tracer
}

// Connect builds the client stack for ep over pool. Nothing is dialed
// until a client is used.
func Connect(pool *rpc.Pool, ep Endpoints) *Clients {
	kv := dht.NewClient(dht.NewRing(ep.Meta, dht.DefaultVnodes), pool, ep.MetaReplication)
	return &Clients{Endpoints: ep, Pool: pool, MetaStore: mdtree.NewDHTStore(kv)}
}

// VM returns a client over every version-manager shard.
func (c *Clients) VM() *vmanager.Client { return vmanager.NewClient(c.Pool, c.Endpoints.VM...) }

// PM returns a provider-manager client.
func (c *Clients) PM() *pmanager.Client { return pmanager.NewClient(c.Pool, c.Endpoints.PM) }

// NS returns a namespace-manager client.
func (c *Clients) NS() *namespace.Client { return namespace.NewClient(c.Pool, c.Endpoints.NS) }

// Core returns a BLOB client. host is "" for a dedicated client node or
// the label of the provider it is co-deployed with.
func (c *Clients) Core(host string) *core.Client {
	return core.NewClient(core.Config{
		Pool:      c.Pool,
		VMAddrs:   c.Endpoints.VM,
		PMAddr:    c.Endpoints.PM,
		MetaStore: c.MetaStore,
		Host:      host,
		Tracer:    c.Tracer,
	})
}

// BSFS returns a file-system client over cl; cfg carries the tunables
// (block size, replication, pipeline windows), its Core and NS are set
// here.
func (c *Clients) BSFS(cl *core.Client, cfg bsfs.Config) (*bsfs.FS, error) {
	cfg.Core, cfg.NS = cl, c.NS()
	return bsfs.New(cfg)
}

// Repair returns a repair engine (scanner and executor) over the stack:
// it asks the version managers, the provider manager and the providers,
// never the metadata DHT.
func (c *Clients) Repair() *repair.Engine {
	return repair.New(repair.Config{VM: c.VM(), PM: c.PM(), Prov: provider.NewClient(c.Pool)})
}

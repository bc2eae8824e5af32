// Package tukey implements Tukey, the OSDC's middleware and console (paper
// §5, Figure 1): "a centralized and intuitive web interface for accessing
// public and private cloud services".
//
// The middleware consists of HTTP-based proxies for authentication and API
// translation that sit between the Tukey web application and the cloud
// software stacks (§5.2):
//
//   - the auth proxy accepts Shibboleth- or OpenID-style logins, then looks
//     up the cloud credentials associated with the federated identifier in
//     the user database;
//   - the translation proxies accept requests in the OpenStack API shape
//     and issue commands to each registered cloud according to that cloud's
//     configuration (OpenStack dialect passes through; Eucalyptus dialect
//     is translated to EC2 query calls), then transform each result, tag it
//     with the cloud name, and aggregate everything into one JSON response
//     in the OpenStack format.
//
// The console (console.go) builds the user-facing endpoints — instances,
// usage/billing, file sharing, public datasets — on the middleware.
package tukey

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"osdc/internal/cloudapi"
)

// Provider identifies a federated login method.
type Provider string

// Supported identity providers (§5.2).
const (
	Shibboleth Provider = "shibboleth"
	OpenID     Provider = "openid"
)

// Identity is the federated identifier an IdP asserts.
type Identity struct {
	Provider   Provider
	Identifier string // eppn for Shibboleth, URL for OpenID
}

// IdP validates login secrets and asserts identifiers. Implementations
// model the redirect/assert flows' outcome.
type IdP interface {
	Name() Provider
	// Assert validates the user's secret and returns the federated
	// identifier.
	Assert(username, secret string) (Identity, error)
}

// ShibbolethIdP asserts eduPerson principal names (user@institution).
type ShibbolethIdP struct {
	Institution string
	passwords   map[string]string
}

// NewShibboleth creates a campus IdP.
func NewShibboleth(institution string) *ShibbolethIdP {
	return &ShibbolethIdP{Institution: institution, passwords: make(map[string]string)}
}

// Enroll registers a campus account.
func (s *ShibbolethIdP) Enroll(user, password string) { s.passwords[user] = password }

// Name implements IdP.
func (s *ShibbolethIdP) Name() Provider { return Shibboleth }

// Assert implements IdP.
func (s *ShibbolethIdP) Assert(username, secret string) (Identity, error) {
	if p, ok := s.passwords[username]; !ok || p != secret {
		return Identity{}, fmt.Errorf("tukey: shibboleth assertion failed for %s", username)
	}
	return Identity{Provider: Shibboleth, Identifier: username + "@" + s.Institution}, nil
}

// OpenIDIdP asserts identifier URLs.
type OpenIDIdP struct {
	Realm   string
	secrets map[string]string
}

// NewOpenID creates an OpenID provider.
func NewOpenID(realm string) *OpenIDIdP {
	return &OpenIDIdP{Realm: realm, secrets: make(map[string]string)}
}

// Enroll registers an account.
func (o *OpenIDIdP) Enroll(user, secret string) { o.secrets[user] = secret }

// Name implements IdP.
func (o *OpenIDIdP) Name() Provider { return OpenID }

// Assert implements IdP.
func (o *OpenIDIdP) Assert(username, secret string) (Identity, error) {
	if p, ok := o.secrets[username]; !ok || p != secret {
		return Identity{}, fmt.Errorf("tukey: openid check failed for %s", username)
	}
	return Identity{Provider: OpenID, Identifier: o.Realm + "/" + username}, nil
}

// CloudCredential is one cloud's credential for a user, stored in the user
// database keyed by federated identifier.
type CloudCredential struct {
	Cloud     string
	AuthUser  string // the identity the cloud's native API expects
	AuthToken string // opaque secret (unused by the simulated stacks)
}

// CloudConfig describes one attached cloud: its dialect and how to reach
// it, the "configuration file" of §5.2.
//
// API is the transport to the cloud. Leave it nil and set Endpoint to have
// AttachCloud build a cloudapi.Remote speaking the cloud's native dialect
// over HTTP (the common case, and the historic behavior); or inject any
// cloudapi.CloudAPI — a cloudapi.Local for an in-process cloud, a Remote
// for a per-site server — to choose the topology explicitly.
type CloudConfig struct {
	Name     string
	Stack    string // "openstack" or "eucalyptus"
	Endpoint string // base URL of the native API (used when API is nil)
	API      cloudapi.CloudAPI
	// FlavorMap translates canonical (OpenStack) flavor names to this
	// cloud's native names; identity if nil or missing.
	FlavorMap map[string]string
}

// Middleware is the Tukey middleware: user DB + auth proxy + translation
// proxies.
//
// Every field behind mu — the user DB, the attached clouds and the
// counters — is read and written from concurrent HTTP handlers, so all
// paths (including the counter increments) go through the lock. Sessions
// live in the SessionStore, which synchronizes itself; the outbound cloud
// round trips happen with the lock released.
type Middleware struct {
	mu      sync.Mutex
	idps    map[Provider]IdP
	userDB  map[string][]CloudCredential // federated identifier -> creds
	clouds  []CloudConfig
	store   SessionStore
	nextTok int
	// tokenPrefix distinguishes tokens minted by different console
	// replicas sharing one session store: every replica counts its own
	// nextTok, so without a per-replica prefix two replicas would mint the
	// same token for different identities (a cross-user session collision).
	tokenPrefix string
	ttl         time.Duration    // session lifetime; 0 = sessions never expire
	now         func() time.Time // test hook; time.Now when nil
	client      *http.Client

	Logins       int64
	LoginFails   int64
	Translations int64
}

// NewMiddleware creates an empty middleware backed by an in-memory session
// store.
func NewMiddleware() *Middleware {
	return &Middleware{
		idps:   make(map[Provider]IdP),
		userDB: make(map[string][]CloudCredential),
		store:  NewMemorySessionStore(),
		// The timeout keeps a hung cloud from pinning console handler
		// goroutines (and, via pollers, the clock driver) forever.
		client: &http.Client{Timeout: cloudapi.DefaultTimeout},
	}
}

// SetSessionStore replaces the session store (e.g. with one shared across
// console replicas). Call before traffic starts; sessions in the old store
// are not migrated.
func (m *Middleware) SetSessionStore(s SessionStore) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store = s
}

// SetTokenPrefix namespaces this middleware's session tokens
// ("tukey-sess-<prefix>%06d"). Every replica sharing a session store must
// carry a distinct prefix or two replicas' independent token counters
// will collide in the shared store. Call before traffic starts.
func (m *Middleware) SetTokenPrefix(p string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tokenPrefix = p
}

// Replica clones this middleware into a stateless peer sharing its IdPs
// (same pointers: enrollment tables are setup-time state), a snapshot of
// its user DB and attached clouds, and the given session store — nil
// shares this middleware's store. tokenPrefix must be unique per replica.
// Credentials granted after the clone go only to the middleware they are
// granted on; core.Federation.EnrollResearcher fans grants across every
// replica it tracks.
func (m *Middleware) Replica(store SessionStore, tokenPrefix string) *Middleware {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := &Middleware{
		idps:        make(map[Provider]IdP, len(m.idps)),
		userDB:      make(map[string][]CloudCredential, len(m.userDB)),
		clouds:      append([]CloudConfig(nil), m.clouds...),
		store:       store,
		tokenPrefix: tokenPrefix,
		ttl:         m.ttl,
		now:         m.now,
		client:      m.client,
	}
	if store == nil {
		r.store = m.store
	}
	for p, idp := range m.idps {
		r.idps[p] = idp
	}
	for id, creds := range m.userDB {
		r.userDB[id] = append([]CloudCredential(nil), creds...)
	}
	return r
}

// sessions returns the current store and session TTL under the lock.
func (m *Middleware) sessions() (SessionStore, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store, m.ttl
}

// SetHTTPTimeout replaces the per-request deadline on the middleware's
// outbound HTTP client — the one AttachCloud hands to endpoint-built
// Remotes (the -site-timeout knob; cloudapi.DefaultTimeout when never
// called). Call before attaching clouds: already-built Remotes keep the
// client they were constructed with.
func (m *Middleware) SetHTTPTimeout(d time.Duration) {
	if d <= 0 {
		d = cloudapi.DefaultTimeout
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.client = &http.Client{Timeout: d}
}

// SetSessionTTL bounds session lifetime: tokens minted after the call
// expire ttl of wall-clock time after login and are reaped lazily on their
// next use. ttl <= 0 restores the default (sessions live forever).
func (m *Middleware) SetSessionTTL(ttl time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ttl < 0 {
		ttl = 0
	}
	m.ttl = ttl
}

func (m *Middleware) wallNow() time.Time {
	if m.now != nil {
		return m.now()
	}
	return time.Now()
}

// RegisterIdP attaches an identity provider.
func (m *Middleware) RegisterIdP(p IdP) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.idps[p.Name()] = p
}

// AttachCloud registers a cloud stack. With cfg.API nil, an Endpoint is
// required and the cloud is reached through a cloudapi.Remote speaking its
// native dialect; with cfg.API set, Name and Stack default to what the API
// reports.
func (m *Middleware) AttachCloud(cfg CloudConfig) {
	if cfg.API == nil {
		if cfg.Stack != "openstack" && cfg.Stack != "eucalyptus" {
			panic("tukey: unsupported stack " + cfg.Stack)
		}
		if cfg.Endpoint == "" {
			panic("tukey: AttachCloud needs an API or an Endpoint")
		}
		m.mu.Lock()
		client := m.client
		m.mu.Unlock()
		cfg.API = cloudapi.NewRemote(cfg.Name, cfg.Stack, cfg.Endpoint, client)
	} else {
		if cfg.Name == "" {
			cfg.Name = cfg.API.Name()
		}
		if cfg.Stack == "" {
			cfg.Stack = cfg.API.Stack()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clouds = append(m.clouds, cfg)
}

// cloudConfigs snapshots the attached clouds so fan-out loops can run
// without the lock.
func (m *Middleware) cloudConfigs() []CloudConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]CloudConfig(nil), m.clouds...)
}

// cloudConfigByName copies out one attached cloud's config.
func (m *Middleware) cloudConfigByName(name string) (CloudConfig, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.clouds {
		if c.Name == name {
			return c, true
		}
	}
	return CloudConfig{}, false
}

// Clouds returns the attached cloud names in order.
func (m *Middleware) Clouds() []string {
	var out []string
	for _, c := range m.cloudConfigs() {
		out = append(out, c.Name)
	}
	return out
}

// GrantCredentials binds per-cloud credentials to a federated identifier.
func (m *Middleware) GrantCredentials(identifier string, creds ...CloudCredential) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.userDB[identifier] = append(m.userDB[identifier], creds...)
}

// Login runs the auth-proxy flow: the IdP asserts the identifier, then the
// proxy looks up the cloud credentials for it (§5.2). Returns a session
// token.
func (m *Middleware) Login(p Provider, username, secret string) (string, error) {
	m.mu.Lock()
	idp, ok := m.idps[p]
	m.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("tukey: no identity provider %q", p)
	}
	// The IdP assertion happens outside the lock; enrolled IdP tables are
	// setup-time state.
	id, err := idp.Assert(username, secret)
	m.mu.Lock()
	if err != nil {
		m.LoginFails++
		m.mu.Unlock()
		return "", err
	}
	if _, ok := m.userDB[id.Identifier]; !ok {
		m.LoginFails++
		m.mu.Unlock()
		return "", fmt.Errorf("tukey: %s authenticated but has no OSDC account", id.Identifier)
	}
	m.nextTok++
	tok := fmt.Sprintf("tukey-sess-%s%06d", m.tokenPrefix, m.nextTok)
	s := Session{Identity: id}
	if m.ttl > 0 {
		s.Expires = m.wallNow().Add(m.ttl)
	}
	store := m.store
	m.Logins++
	m.mu.Unlock()
	// The Put runs outside m.mu: with a wire-backed store it is a network
	// round trip, and holding the middleware lock across it serializes
	// every login on the replica (the console-knee mutex profile put 95%
	// of all lock delay here). Token uniqueness comes from nextTok, minted
	// under the lock above.
	store.Put(tok, s)
	return tok, nil
}

// identityFor resolves a session token, reaping it if it has expired and
// sliding its expiry forward if it is active.
func (m *Middleware) identityFor(token string) (Identity, bool) {
	store, ttl := m.sessions()
	s, found := store.Get(token)
	return settle(store, ttl, token, s, found, m.wallNow())
}

// settle finishes resolving a session looked up at now: an expired one is
// reaped, an active one has its expiry slid forward. Both the console's
// admit layer and identityFor call it with the now the lookup was judged
// at, so the session a bucket was chosen for is the one that is settled.
func settle(store SessionStore, ttl time.Duration, token string, s Session, found bool, now time.Time) (Identity, bool) {
	if !found {
		return Identity{}, false
	}
	if s.expired(now) {
		store.Delete(token)
		return Identity{}, false
	}
	// Sliding expiry: touching a session renews it to now+ttl, so a
	// session busy on replica A cannot be reaped by ExpireBefore running
	// on replica B against the shared store with a stale last-seen. The
	// write is elided until at least ttl/8 of the lifetime has been
	// consumed, bounding refresh traffic against the shared store to at
	// most 8 writes per ttl per active session.
	if ttl > 0 && !s.Expires.IsZero() {
		if fresh := now.Add(ttl); fresh.Sub(s.Expires) >= ttl/8 {
			s.Expires = fresh
			store.Put(token, s)
		}
	}
	return s.Identity, true
}

// SessionCount reports live (unexpired) sessions, reaping expired ones on
// the way — the console's gauge of concurrent users.
func (m *Middleware) SessionCount() int {
	store, _ := m.sessions()
	store.ExpireBefore(m.wallNow())
	return store.Count()
}

// credsFor returns the user's credential for a cloud, if any.
func (m *Middleware) credsFor(id Identity, cloud string) (CloudCredential, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.userDB[id.Identifier] {
		if c.Cloud == cloud {
			return c, true
		}
	}
	return CloudCredential{}, false
}

// TaggedServer is one VM in the aggregated OpenStack-format response,
// tagged with its cloud name (§5.2: "tagged with the cloud name and
// aggregated into a JSON response that matches the format of the OpenStack
// API").
type TaggedServer struct {
	Cloud  string `json:"cloud"`
	ID     string `json:"id"`
	Name   string `json:"name"`
	Status string `json:"status"`
	Flavor string `json:"flavorRef"`
}

// ListServers fans out to every cloud the user holds credentials for,
// translating per dialect, and aggregates. Like the other token-taking
// methods it resolves the session and hands the identity to the
// unexported body; the console, whose admit layer has already resolved
// the session for the request, calls the bodies directly so a request
// resolves its session once (on a replica, inside the one state-plane
// round trip that also charges its bucket).
func (m *Middleware) ListServers(token string) ([]TaggedServer, error) {
	id, ok := m.identityFor(token)
	if !ok {
		return nil, fmt.Errorf("tukey: invalid session")
	}
	return m.listServers(id)
}

func (m *Middleware) listServers(id Identity) ([]TaggedServer, error) {
	var out []TaggedServer
	for _, cfg := range m.cloudConfigs() {
		cred, ok := m.credsFor(id, cfg.Name)
		if !ok {
			continue
		}
		servers, err := m.listOne(cfg, cred)
		if err != nil {
			return nil, fmt.Errorf("tukey: cloud %s: %w", cfg.Name, err)
		}
		out = append(out, servers...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cloud != out[j].Cloud {
			return out[i].Cloud < out[j].Cloud
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// countTranslation bumps the translation counter under the lock.
func (m *Middleware) countTranslation() {
	m.mu.Lock()
	m.Translations++
	m.mu.Unlock()
}

// listOne asks one cloud for the user's servers through its transport —
// the dialect translation (OpenStack JSON passthrough, EC2 query/XML
// re-shaping) lives in cloudapi.Remote now — and tags the results.
func (m *Middleware) listOne(cfg CloudConfig, cred CloudCredential) ([]TaggedServer, error) {
	m.countTranslation()
	instances, err := cfg.API.Instances(cred.AuthUser)
	if err != nil {
		return nil, err
	}
	var out []TaggedServer
	for _, i := range instances {
		out = append(out, TaggedServer{Cloud: cfg.Name, ID: i.ID, Name: i.Name,
			Status: i.Status, Flavor: i.Flavor})
	}
	return out, nil
}

// LaunchServer provisions a VM on a named cloud via the appropriate dialect
// and returns the tagged server.
func (m *Middleware) LaunchServer(token, cloud, name, flavor string) (*TaggedServer, error) {
	id, ok := m.identityFor(token)
	if !ok {
		return nil, fmt.Errorf("tukey: invalid session")
	}
	return m.launchServer(id, cloud, name, flavor)
}

func (m *Middleware) launchServer(id Identity, cloud, name, flavor string) (*TaggedServer, error) {
	cfg, ok := m.cloudConfigByName(cloud)
	if !ok {
		return nil, fmt.Errorf("tukey: unknown cloud %q", cloud)
	}
	cred, ok := m.credsFor(id, cloud)
	if !ok {
		return nil, fmt.Errorf("tukey: no credentials on %s for %s", cloud, id.Identifier)
	}
	native := flavor
	if cfg.FlavorMap != nil {
		if f, ok := cfg.FlavorMap[flavor]; ok {
			native = f
		}
	}
	m.countTranslation()
	inst, err := cfg.API.Launch(cred.AuthUser, name, native, "")
	if err != nil {
		return nil, fmt.Errorf("tukey: %s: %w", cloud, err)
	}
	return &TaggedServer{Cloud: cloud, ID: inst.ID, Name: name,
		Status: inst.Status, Flavor: native}, nil
}

// TerminateServer releases a VM on a named cloud.
func (m *Middleware) TerminateServer(token, cloud, id string) error {
	ident, ok := m.identityFor(token)
	if !ok {
		return fmt.Errorf("tukey: invalid session")
	}
	return m.terminateServer(ident, cloud, id)
}

func (m *Middleware) terminateServer(ident Identity, cloud, id string) error {
	cfg, ok := m.cloudConfigByName(cloud)
	if !ok {
		return fmt.Errorf("tukey: unknown cloud %q", cloud)
	}
	cred, ok := m.credsFor(ident, cloud)
	if !ok {
		return fmt.Errorf("tukey: no credentials on %s", cloud)
	}
	m.countTranslation()
	if err := cfg.API.Terminate(cred.AuthUser, id); err != nil {
		return fmt.Errorf("tukey: %s: %w", cloud, err)
	}
	return nil
}

// StopServer shuts one of the user's servers down on the named cloud
// (OpenStack os-stop / EC2 StopInstances through the native dialect): it
// reaches SHUTOFF after the cloud's stop delay and stops accruing usage,
// keeping its allocation.
func (m *Middleware) StopServer(token, cloud, id string) error {
	ident, ok := m.identityFor(token)
	if !ok {
		return fmt.Errorf("tukey: invalid session")
	}
	return m.stopServer(ident, cloud, id)
}

func (m *Middleware) stopServer(ident Identity, cloud, id string) error {
	cfg, ok := m.cloudConfigByName(cloud)
	if !ok {
		return fmt.Errorf("tukey: unknown cloud %q", cloud)
	}
	cred, ok := m.credsFor(ident, cloud)
	if !ok {
		return fmt.Errorf("tukey: no credentials on %s", cloud)
	}
	m.countTranslation()
	if err := cfg.API.Stop(cred.AuthUser, id); err != nil {
		return fmt.Errorf("tukey: %s: %w", cloud, err)
	}
	return nil
}

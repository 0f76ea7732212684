// Package aspp is a simulator, detector and measurement harness for the
// ASPP-based BGP prefix interception attack, reproducing "Studying Impacts
// of Prefix Interception Attack by Exploring BGP AS-PATH Prepending"
// (Zhang & Pourzandi, ICDCS 2012).
//
// The attack: a victim AS pads its announcements with λ copies of its own
// ASN (AS-path prepending, routine traffic engineering); an attacker that
// receives the route removes λ−1 of the copies and re-advertises it. The
// bogus route is λ−1 hops shorter without a false origin or a fake link,
// so much of the Internet switches to it and the attacker transparently
// intercepts traffic that still reaches the victim.
//
// The package wraps the internal engines behind one entry point:
//
//	internet, err := aspp.NewInternet(aspp.WithSize(4000), aspp.WithSeed(7))
//	impact, err := internet.SimulateAttack(aspp.Scenario{
//		Victim:   victim,
//		Attacker: attacker,
//		Prepend:  3,
//	})
//	fmt.Printf("polluted: %.1f%%\n", 100*impact.After())
//
// Experiment drivers regenerate every figure of the paper's evaluation;
// see the examples directory, cmd/asppbench and EXPERIMENTS.md.
package aspp

import (
	"context"
	"fmt"
	"io"
	"strings"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/core"
	"aspp/internal/defense"
	"aspp/internal/detect"
	"aspp/internal/experiment"
	"aspp/internal/measure"
	"aspp/internal/obs"
	"aspp/internal/relinfer"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
	"aspp/internal/trace"
)

// Core data types, re-exported for the public API surface.
type (
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// Path is a BGP AS-PATH with literal prepending.
	Path = bgp.Path
	// Route binds a prefix to a path.
	Route = bgp.Route
	// Update is one monitor-observed routing change.
	Update = bgp.Update
	// Graph is an immutable AS-level topology.
	Graph = topology.Graph
	// GenConfig parameterizes the topology generator.
	GenConfig = topology.GenConfig
	// Scenario configures one interception attack.
	Scenario = core.Scenario
	// Impact is the simulated outcome of one attack.
	Impact = core.Impact
	// Announcement is the victim's prefix advertisement.
	Announcement = routing.Announcement
	// RoutingResult is a stable per-AS routing outcome.
	RoutingResult = routing.Result
	// Alarm is one detection event.
	Alarm = detect.Alarm
	// Detector consumes update streams and raises alarms.
	Detector = detect.Detector
	// PairConfig drives the attacker/victim pair experiments (Figs. 7-8).
	PairConfig = experiment.PairConfig
	// PairImpact is one hijack instance's result.
	PairImpact = experiment.PairImpact
	// SweepPoint is one λ step of a prepend sweep (Figs. 9-12).
	SweepPoint = experiment.SweepPoint
	// DetectionConfig drives the detection experiments (Figs. 13-14).
	DetectionConfig = experiment.DetectionConfig
	// DetectionOutcome carries detection accuracy and latency series.
	DetectionOutcome = experiment.DetectionOutcome
	// PolicyConfig assigns prepending policies to origins (Figs. 5-6).
	PolicyConfig = collector.PolicyConfig
	// SurveyConfig drives the ASPP usage survey.
	SurveyConfig = measure.SurveyConfig
	// SurveyResult is the usage survey outcome.
	SurveyResult = measure.SurveyResult
	// CaseStudy is the §III Facebook anomaly reproduction.
	CaseStudy = experiment.CaseStudy
	// CDF is an empirical distribution, used by several results.
	CDF = stats.CDF
	// TraceHop is one simulated traceroute line (Table I).
	TraceHop = trace.Hop
	// DefenseConfig drives victim self-defense evaluation (monitor
	// placement strategies over the owner-policy check).
	DefenseConfig = defense.Config
	// DefenseOutcome is one placement strategy's evaluation.
	DefenseOutcome = defense.Outcome
	// MitigationOutcome quantifies a victim's reactive response.
	MitigationOutcome = defense.MitigationOutcome
	// SiblingScenario is the Fig. 11 sibling-enabled interception setup.
	SiblingScenario = experiment.SiblingScenario
	// SusceptibilityConfig drives the §VI-B tier-matrix experiment.
	SusceptibilityConfig = experiment.SusceptibilityConfig
	// TierCell is one (victim tier, attacker tier) aggregate.
	TierCell = experiment.TierCell
	// EngineKind selects the attack-propagation engine for sweeps.
	EngineKind = core.EngineKind
	// Counters collects optional per-sweep telemetry (propagations per
	// engine, baseline-cache hits/misses, skipped draws, churn updates).
	// The zero value is ready to use; nil disables recording. Use one
	// Counters per sweep and read it with Snapshot.
	Counters = obs.Counters
	// CountersSnapshot is a consistent point-in-time read of Counters.
	CountersSnapshot = obs.Snapshot
	// SweepConfig drives counter-aware prepend sweeps (Figs. 9-12).
	SweepConfig = experiment.SweepConfig
)

// Attack-propagation engine kinds (the asppbench -engine ablation).
const (
	// EngineAuto picks delta propagation when a baseline is available.
	EngineAuto = core.EngineAuto
	// EngineFull recomputes every attack from scratch.
	EngineFull = core.EngineFull
	// EngineDelta forces incremental recomputation of the attacker's cone.
	EngineDelta = core.EngineDelta
)

// ParseEngineKind parses "auto", "full" or "delta".
var ParseEngineKind = core.ParseEngineKind

// Re-exported constructors and helpers.
var (
	// ParseASN parses "7018" or "AS7018".
	ParseASN = bgp.ParseASN
	// ParsePath parses "7018 3356 32934 32934".
	ParsePath = bgp.ParsePath
	// DefaultPolicyConfig is the calibrated prepending-policy mix.
	DefaultPolicyConfig = collector.DefaultPolicyConfig
	// DefaultSurveyConfig is the standard usage-survey setup.
	DefaultSurveyConfig = measure.DefaultSurveyConfig
	// DefaultDetectionConfig mirrors the paper's Figs. 13-14 setup.
	DefaultDetectionConfig = experiment.DefaultDetectionConfig
	// FacebookCaseStudy builds and simulates the §III anomaly.
	FacebookCaseStudy = experiment.FacebookCaseStudy
	// RenderTraceroute formats hops like the paper's Table I.
	RenderTraceroute = trace.Render
)

// Pair-experiment kinds (Figs. 7-8).
const (
	PairsTier1  = experiment.PairsTier1
	PairsRandom = experiment.PairsRandom
)

// Monitor-selection policies for detection experiments.
const (
	MonitorsTopDegree = experiment.MonitorsTopDegree
	MonitorsRandom    = experiment.MonitorsRandom
)

// Self-defense monitor-placement strategies.
const (
	StrategyTopDegree  = defense.StrategyTopDegree
	StrategyRandom     = defense.StrategyRandom
	StrategyVictimCone = defense.StrategyVictimCone
	StrategyGreedy     = defense.StrategyGreedy
)

// Victim mitigation responses.
const (
	MitigateUnprepend = defense.MitigateUnprepend
	MitigateWithhold  = defense.MitigateWithhold
)

// Internet is the top-level handle: a topology plus the operations the
// paper's study needs. It is immutable and safe for concurrent use.
type Internet struct {
	g *topology.Graph
}

// Option configures NewInternet.
type Option interface {
	apply(*options)
}

type options struct {
	size  int
	seed  int64
	gen   *topology.GenConfig
	graph *topology.Graph
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithSize sets the number of ASes to generate (default 4000).
func WithSize(n int) Option {
	return optionFunc(func(o *options) { o.size = n })
}

// WithSeed sets the generator seed (default 1).
func WithSeed(seed int64) Option {
	return optionFunc(func(o *options) { o.seed = seed })
}

// WithGenConfig supplies a full generator configuration, overriding
// WithSize (WithSeed still applies unless the config sets its own).
func WithGenConfig(cfg GenConfig) Option {
	return optionFunc(func(o *options) { c := cfg; o.gen = &c })
}

// WithTopology uses an existing graph instead of generating one.
func WithTopology(g *Graph) Option {
	return optionFunc(func(o *options) { o.graph = g })
}

// NewInternet builds an Internet from the options: a supplied topology, a
// supplied generator configuration, or a default generated topology.
func NewInternet(opts ...Option) (*Internet, error) {
	o := options{size: 4000, seed: 1}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.graph != nil {
		return &Internet{g: o.graph}, nil
	}
	cfg := topology.DefaultGenConfig(o.size)
	if o.gen != nil {
		cfg = *o.gen
	}
	if o.seed != 1 || cfg.Seed == 0 {
		cfg.Seed = o.seed
	}
	g, err := topology.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("aspp: generate topology: %w", err)
	}
	return &Internet{g: g}, nil
}

// Update types, re-exported for building update streams.
const (
	Announce = bgp.Announce
	Withdraw = bgp.Withdraw
)

// LoadInternetFromString parses an inline serial-2 relationship listing;
// handy for small hand-built scenarios and examples.
func LoadInternetFromString(s string) (*Internet, error) {
	return LoadInternet(strings.NewReader(s))
}

// LoadInternet reads a CAIDA serial-2 style relationship file
// ("provider|customer|-1", "peer|peer|0") and wraps it as an Internet.
func LoadInternet(r io.Reader) (*Internet, error) {
	g, err := topology.ReadSerial2(r)
	if err != nil {
		return nil, fmt.Errorf("aspp: load topology: %w", err)
	}
	return &Internet{g: g}, nil
}

// WriteTopology writes the topology in serial-2 format.
func (in *Internet) WriteTopology(w io.Writer) error {
	return topology.WriteSerial2(w, in.g)
}

// Graph exposes the underlying topology.
func (in *Internet) Graph() *Graph { return in.g }

// Tier1s returns the provider-free core ASes.
func (in *Internet) Tier1s() []ASN { return in.g.Tier1s() }

// TopByDegree returns the n best-connected ASes.
func (in *Internet) TopByDegree(n int) []ASN { return in.g.TopByDegree(n) }

// SimulateAttackObs is SimulateAttack recording propagation telemetry
// into the optional counters (nil disables recording).
func (in *Internet) SimulateAttackObs(sc Scenario, c *Counters) (*Impact, error) {
	return core.SimulateObs(in.g, sc, c)
}

// SimulateAttack runs one interception attack (see core.Simulate).
func (in *Internet) SimulateAttack(sc Scenario) (*Impact, error) {
	return core.Simulate(in.g, sc)
}

// Propagate computes baseline routing for an announcement.
func (in *Internet) Propagate(ann Announcement) (*RoutingResult, error) {
	return routing.Propagate(in.g, ann)
}

// SamplePairs runs the ranked pair experiments (paper Figs. 7-8).
func (in *Internet) SamplePairs(cfg PairConfig) ([]PairImpact, error) {
	return experiment.SamplePairs(in.g, cfg)
}

// SamplePairsCtx is SamplePairs with cooperative cancellation: once ctx is
// cancelled no further instance is simulated, in-flight work drains, and
// ctx.Err() is returned.
func (in *Internet) SamplePairsCtx(ctx context.Context, cfg PairConfig) ([]PairImpact, error) {
	return experiment.SamplePairsCtx(ctx, in.g, cfg)
}

// SweepPrepend runs a λ sweep for one pair (paper Figs. 9-12).
func (in *Internet) SweepPrepend(victim, attacker ASN, maxLambda int, violate bool) ([]SweepPoint, error) {
	return experiment.SweepPrepend(in.g, victim, attacker, maxLambda, violate, 0)
}

// SweepPrependCfgCtx is the config-struct form of the prepend sweep, with
// cooperative cancellation, the engine choice and optional telemetry
// counters.
func (in *Internet) SweepPrependCfgCtx(ctx context.Context, cfg SweepConfig) ([]SweepPoint, error) {
	return experiment.SweepPrependCfgCtx(ctx, in.g, cfg)
}

// RunDetection evaluates the detection algorithm (paper Figs. 13-14).
func (in *Internet) RunDetection(cfg DetectionConfig) (*DetectionOutcome, error) {
	return experiment.RunDetection(in.g, cfg)
}

// RunDetectionCtx is RunDetection with cooperative cancellation.
func (in *Internet) RunDetectionCtx(ctx context.Context, cfg DetectionConfig) (*DetectionOutcome, error) {
	return experiment.RunDetectionCtx(ctx, in.g, cfg)
}

// NewDetector builds a streaming detector over the given vantage points,
// using the topology's relationships for the hint rules.
func (in *Internet) NewDetector(monitors []ASN) *Detector {
	return detect.NewDetector(monitors, in.g)
}

// UsageSurvey characterizes ASPP usage from monitor tables and update
// streams (paper Figs. 5-6). Zero-value configs select the defaults.
func (in *Internet) UsageSurvey(policy PolicyConfig, survey SurveyConfig) (*SurveyResult, error) {
	if policy.MaxLambda == 0 && policy.PrependFrac == 0 {
		policy = collector.DefaultPolicyConfig()
	}
	if survey.ChurnEvents == 0 && len(survey.Monitors) == 0 {
		def := measure.DefaultSurveyConfig()
		def.Workers = survey.Workers
		def.Seed = survey.Seed
		def.Counters = survey.Counters
		if def.Seed == 0 {
			def.Seed = 1
		}
		survey = def
	}
	origins, err := collector.AssignOrigins(in.g, policy)
	if err != nil {
		return nil, err
	}
	return measure.RunSurvey(in.g, origins, survey)
}

// InferRelationships rebuilds AS relationships from simulated monitor
// paths (the paper's §IV-A preprocessing): Gao's algorithm, the tier-1
// seeded variant, and their consensus. It returns the consensus inference
// and its accuracy against the generator's ground truth.
func (in *Internet) InferRelationships(originSample, nTopMonitors int) (*relinfer.Inferred, relinfer.Accuracy, error) {
	monitors := measure.DefaultMonitors(in.g, nTopMonitors, nTopMonitors/2, 1)
	paths, err := relinfer.CollectPaths(in.g, relinfer.SampleOrigins(in.g, originSample), monitors, 0)
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	plain, err := relinfer.Gao(paths, relinfer.GaoConfig{})
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	seeded, err := relinfer.Tier1Seeded(paths, in.g.Tier1s())
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	cons, err := relinfer.Consensus(paths, plain, seeded)
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	return cons, relinfer.Score(cons, in.g), nil
}

// SusceptibilityMatrix answers §VI-B's "what type of ASes are likely to
// be hijacked" as a (victim tier × attacker tier) pollution matrix.
func (in *Internet) SusceptibilityMatrix(cfg SusceptibilityConfig) ([]TierCell, error) {
	return experiment.SusceptibilityMatrix(in.g, cfg)
}

// SusceptibilityMatrixCtx is SusceptibilityMatrix with cooperative
// cancellation.
func (in *Internet) SusceptibilityMatrixCtx(ctx context.Context, cfg SusceptibilityConfig) ([]TierCell, error) {
	return experiment.SusceptibilityMatrixCtx(ctx, in.g, cfg)
}

// DefaultSusceptibilityConfig is the calibrated §VI-B setup.
var DefaultSusceptibilityConfig = experiment.DefaultSusceptibilityConfig

// CompareDefenses evaluates the monitor-placement strategies for one
// victim (the paper's §VIII future-work agenda).
func (in *Internet) CompareDefenses(cfg DefenseConfig) ([]DefenseOutcome, error) {
	return defense.Compare(in.g, cfg)
}

// DefaultDefenseConfig returns a calibrated self-defense setup.
var DefaultDefenseConfig = defense.DefaultConfig

// Mitigate simulates a victim's reactive response to an ongoing attack.
func (in *Internet) Mitigate(sc Scenario, m defense.Mitigation) (*MitigationOutcome, error) {
	return defense.Mitigate(in.g, sc, m)
}

// CautiousAdoptionSweep measures an attack's pollution as PGBGP-style
// cautious adoption (quarantining routes whose prepend count drops below
// the historical value) spreads across the given deployment fractions.
func (in *Internet) CautiousAdoptionSweep(sc Scenario, fracs []float64, policy defense.DeployPolicy, seed int64) ([]defense.CautiousOutcome, error) {
	return defense.CautiousAdoptionSweep(in.g, sc, fracs, policy, seed)
}

// Cautious-adoption rollout policies.
const (
	DeployRandom    = defense.DeployRandom
	DeployTopDegree = defense.DeployTopDegree
)

// BuildSiblingScenario grafts a sibling of victim (as a customer of
// attacker) onto the topology, enabling the paper's Fig. 11 valley-free
// interception. The returned scenario routes via the Reference engine.
func (in *Internet) BuildSiblingScenario(victim, attacker, siblingASN ASN) (*SiblingScenario, error) {
	return experiment.BuildSiblingScenario(in.g, victim, attacker, siblingASN)
}

// DetectOwnPolicy re-exports the owner-side check: the prefix owner
// compares observed routes against its own per-neighbor prepend policy.
var DetectOwnPolicy = detect.DetectOwnPolicy

// MonitorRoute is one vantage point's current route for a prefix.
type MonitorRoute = detect.MonitorRoute

// ErrAttackerSeesNoRoute re-exports the core sentinel: the attacker never
// receives the victim's route, so there is nothing to strip. Match it
// with errors.Is.
var ErrAttackerSeesNoRoute = core.ErrAttackerSeesNoRoute

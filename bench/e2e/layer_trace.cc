/**
 * @file
 * layer_trace — the traced half of the end-to-end benchmark (run.py).
 *
 * Runs the benchmark's confsim jobs in one process through the
 * libraries' public functions and times every call into a layer with
 * std::chrono::steady_clock. A layer's *self* time is its span minus
 * the spans nested inside it. Between jobs the process-wide experiment
 * caches are cleared, so each job pays what one CLI process pays.
 *
 *   layer_trace TRACE.json < JOBS > RESULTS
 *
 * Reads one job per line on stdin, runs it, and answers with one line
 * on stdout before reading the next, so run.py can alternate traced and
 * untraced runs of each job. A job line is
 *   {"cold": bool, "keep": bool, "args": [confsim arguments]}
 * where "cold" marks a sweep that fills an empty --artifact-dir and
 * "keep" keeps the job's spans for the trace file. Only the confsim
 * options the benchmark generates are accepted.
 *
 * The answer holds the job's time, its self time per layer, its work
 * counts, an xxh64 of its simulated results and, for kept jobs, the
 * results document itself (the fields run.py compares with the CLI's
 * output). At end of input the kept spans are written to TRACE.json as
 * Chrome trace events (open in Perfetto or chrome://tracing).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hh"
#include "common/json.hh"
#include "common/stats_registry.hh"
#include "harness/artifact_store.hh"
#include "harness/experiment_cache.hh"
#include "harness/sampled_replay.hh"
#include "harness/sweep.hh"
#include "harness/synthetic_workload.hh"
#include "harness/trace_run.hh"
#include "sweep/batch_replayer.hh"

using namespace confsim;

namespace
{

using Clock = std::chrono::steady_clock;

enum Layer
{
    GridParse,
    Build,
    Profile,
    Record,
    DecodeStore,
    ArtifactLoad,
    PipelineRun,
    SweepReplay,
    SamplingReplay,
    SyntheticGenerate,
    JsonOut,
    LAYERS
};

const char *const LAYER_NAMES[LAYERS] = {
    "harness.grid_parse", "workloads.build",      "harness.profile",
    "harness.record",     "harness.decode_store", "artifact.load",
    "pipeline",           "sweep.replay",         "sampling.replay",
    "synthetic.generate", "harness.json_out",
};

/** One finished span, kept for the trace file. */
struct SpanEvent
{
    std::string name;
    std::string parent;
    double startUs = 0.0;
    double durUs = 0.0;
    JsonValue args;
};

/**
 * Span bookkeeping for one job: a stack of open spans, per-layer self
 * seconds, and (when `keep`) the finished spans for the trace file.
 */
class Tracer
{
  public:
    struct Open
    {
        const char *name;
        int layer; ///< -1 for the job span
        Clock::time_point start;
        double childS = 0.0;
    };

    void
    beginJob(bool keepEvents, JsonValue args)
    {
        keep = keepEvents;
        jobArgs = std::move(args);
        for (double &s : selfS)
            s = 0.0;
        stack.clear();
        stack.push_back({"job", -1, Clock::now()});
    }

    /** Close the job span; @return its duration in seconds. */
    double
    endJob()
    {
        const Open job = stack.back();
        stack.pop_back();
        const double dur = seconds(job.start, Clock::now());
        record(job, dur, "", true);
        return dur;
    }

    void
    begin(Layer layer)
    {
        stack.push_back({LAYER_NAMES[layer], layer, Clock::now()});
    }

    /** Close the innermost span; @p emit false keeps it out of the
     *  trace file (its time still counts). */
    void
    end(bool emit = true)
    {
        const Open span = stack.back();
        stack.pop_back();
        const double dur = seconds(span.start, Clock::now());
        selfS[span.layer] += dur - span.childS;
        stack.back().childS += dur;
        record(span, dur, stack.back().name, emit);
    }

    double self(int layer) const { return selfS[layer]; }

    const std::vector<SpanEvent> &events() const { return spans; }

  private:
    static double
    seconds(Clock::time_point a, Clock::time_point b)
    {
        return std::chrono::duration<double>(b - a).count();
    }

    void
    record(const Open &span, double dur, const char *parent, bool emit)
    {
        if (!keep || !emit)
            return;
        SpanEvent ev;
        ev.name = span.name;
        ev.parent = parent;
        ev.startUs = 1e6 * seconds(origin, span.start);
        ev.durUs = 1e6 * dur;
        ev.args = jobArgs;
        spans.push_back(std::move(ev));
    }

    Clock::time_point origin = Clock::now();
    std::vector<Open> stack;
    double selfS[LAYERS] = {};
    bool keep = false;
    JsonValue jobArgs;
    std::vector<SpanEvent> spans;
};

/** RAII span over one layer call. */
class Span
{
  public:
    Span(Tracer &t, Layer layer) : tracer(t) { tracer.begin(layer); }
    ~Span() { tracer.end(emit); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void quiet() { emit = false; }

  private:
    Tracer &tracer;
    bool emit = true;
};

/**
 * OpSource decorator timing every cover() of the wrapped generator.
 * Only covers that generate a new chunk go into the trace file; the
 * rest return the resident chunk and would only clutter it.
 */
class TimedOpSource final : public OpSource
{
  public:
    TimedOpSource(OpSource &inner, Tracer &tracer)
        : src(inner), tr(tracer)
    {
    }

    std::uint64_t totalOps() const override { return src.totalOps(); }

    std::shared_ptr<const DecodedTrace>
    cover(std::uint64_t opBegin, std::uint64_t opEnd,
          std::uint64_t &localBegin, std::uint64_t &coveredEnd) override
    {
        Span span(tr, SyntheticGenerate);
        auto piece = src.cover(opBegin, opEnd, localBegin, coveredEnd);
        if (piece && piece != last) {
            generated += piece->size();
            last = piece;
        } else {
            span.quiet();
        }
        return piece;
    }

    std::uint64_t generatedBranches() const { return generated; }

  private:
    OpSource &src;
    Tracer &tr;
    std::shared_ptr<const DecodedTrace> last;
    std::uint64_t generated = 0;
};

/** The confsim options the benchmark's jobs use. */
struct JobArgs
{
    std::string workload = "compress";
    std::string predictor = "gshare";
    std::string estimator = "jrs";
    unsigned scale = 1;
    std::uint64_t seed = 0x5eed;
    int gate = -1;
    bool eager = false;
    std::string sweepPath;
    std::string artifactDir;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "layer_trace: %s\n", msg.c_str());
    std::exit(1);
}

JobArgs
parseArgs(const JsonValue &argv)
{
    JobArgs a;
    const auto &items = argv.elements();
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string arg = items[i].asString();
        auto next = [&]() -> std::string {
            if (i + 1 >= items.size())
                die(arg + " needs a value");
            return items[++i].asString();
        };
        if (arg == "--workload")
            a.workload = next();
        else if (arg == "--predictor")
            a.predictor = next();
        else if (arg == "--estimator")
            a.estimator = next();
        else if (arg == "--scale")
            a.scale = static_cast<unsigned>(std::stoul(next()));
        else if (arg == "--seed")
            a.seed = std::stoull(next(), nullptr, 0);
        else if (arg == "--gate")
            a.gate = std::stoi(next());
        else if (arg == "--eager")
            a.eager = true;
        else if (arg == "--sweep")
            a.sweepPath = next();
        else if (arg == "--artifact-dir")
            a.artifactDir = next();
        else if (arg == "--jobs") {
            if (next() != "1")
                die("jobs run serially: --jobs must be 1");
        } else if (arg != "--json")
            die("unsupported confsim option '" + arg + "'");
    }
    return a;
}

JsonValue
quadrantsJson(const QuadrantCounts &q)
{
    JsonValue v = JsonValue::object();
    v["chc"] = JsonValue(std::uint64_t{q.chc});
    v["ihc"] = JsonValue(std::uint64_t{q.ihc});
    v["clc"] = JsonValue(std::uint64_t{q.clc});
    v["ilc"] = JsonValue(std::uint64_t{q.ilc});
    return v;
}

template <typename T>
std::uint64_t
columnBytes(const ColumnView<T> &c)
{
    return c.size() * sizeof(T);
}

/** Bytes of every column of @p t (what a warm load maps and hashes). */
std::uint64_t
traceBytes(const DecodedTrace &t)
{
    std::uint64_t n = columnBytes(t.pc) + columnBytes(t.info)
        + columnBytes(t.flags) + columnBytes(t.fetchCycle)
        + columnBytes(t.resolveCycle) + columnBytes(t.schedule)
        + columnBytes(t.preciseDistAll)
        + columnBytes(t.preciseDistCommitted)
        + columnBytes(t.perceivedDistAll)
        + columnBytes(t.perceivedDistCommitted);
    for (const InputChannel &c : t.channels)
        n += columnBytes(c.u8) + columnBytes(c.u16) + columnBytes(c.u32)
            + columnBytes(c.u64);
    return n;
}

PredictorKind
predictorKind(const std::string &name)
{
    PredictorKind kind;
    if (!predictorKindFromName(name, kind))
        die("unknown predictor '" + name + "'");
    return kind;
}

const WorkloadSpec &
workloadSpec(const std::string &name)
{
    for (const WorkloadSpec &spec : standardWorkloads())
        if (spec.name == name)
            return spec;
    die("unknown workload '" + name + "'");
}

/** What one job produced besides its spans. */
struct JobOutput
{
    JsonValue doc;
    JsonValue counts = JsonValue::object();
};

/** confsim --workload W [--gate N|--eager] --json, as runOne() does. */
JobOutput
runPipelineJob(const JobArgs &a, Tracer &tr)
{
    WorkloadConfig wl;
    wl.scale = a.scale;
    wl.seed = a.seed;
    const WorkloadSpec &spec = workloadSpec(a.workload);
    std::shared_ptr<const Program> prog;
    {
        Span span(tr, Build);
        prog = cachedProgram(spec, wl);
    }
    const PredictorKind kind = predictorKind(a.predictor);

    ProfileTable profile;
    if (a.estimator == "static") {
        Span span(tr, Profile);
        auto profiling = makePredictor(kind);
        profile = buildProfile(*prog, *profiling);
    }

    // The CLI's estimator defaults (--jrs-thr 15, --dist-thr 4,
    // --static-thr 0.9).
    SweepEstimatorParams params;
    params.jrs.threshold = 15;
    params.distanceThreshold = 4;
    params.staticThreshold = 0.9;
    auto pred = makePredictor(kind);
    auto est = makeNamedEstimator(a.estimator, params, kind, profile);
    if (!est)
        die("unknown estimator '" + a.estimator + "'");

    QuadrantCounts committed;
    QuadrantCounts all;
    CallbackSink sink([&](const BranchEvent &ev) {
        all.record(ev.correct, ev.estimate(0));
        if (ev.willCommit)
            committed.record(ev.correct, ev.estimate(0));
    });
    StatsRegistry registry;
    registry.registerObject("predictor", *pred);
    registry.registerObject("estimator", *est);
    Pipeline pipe(*prog, *pred, PipelineConfig{});
    registry.registerObject("pipeline", pipe);
    const unsigned idx = pipe.attachEstimator(est.get());
    if (a.gate >= 0)
        pipe.enableGating(idx, static_cast<unsigned>(a.gate));
    if (a.eager)
        pipe.enableEagerExecution(idx);
    pipe.attachSink(&sink);

    PipelineStats stats;
    {
        Span span(tr, PipelineRun);
        stats = pipe.run();
    }

    JobOutput out;
    std::string text;
    {
        Span span(tr, JsonOut);
        JsonValue run = JsonValue::object();
        run["workload"] = JsonValue(a.workload);
        run["mode"] = JsonValue("pipeline");
        run["components"] = registry.configJson();
        run["stats"] = registry.statsJson();
        JsonValue quads = JsonValue::object();
        quads["committed"] = quadrantsJson(committed);
        quads["all"] = quadrantsJson(all);
        run["quadrants"] = quads;
        out.doc = JsonValue::object();
        out.doc["runs"].push(run);
        text = out.doc.dump(2);
    }
    out.counts["sim_insts"] = JsonValue(stats.allInsts);
    out.counts["committed_insts"] = JsonValue(stats.committedInsts);
    out.counts["sim_cycles"] = JsonValue(std::uint64_t{stats.cycles});
    out.counts["gated_cycles"] = JsonValue(stats.gatedCycles);
    out.counts["forked_branches"] = JsonValue(stats.forkedBranches);
    out.counts["json_bytes"] = JsonValue(std::uint64_t{text.size()});
    return out;
}

/** Attach one grid column as a devirtualized lane, as attachConfig()
 *  in harness/sweep.cc does; the sampled jobs use no other kind. */
void
attachKernelLane(BatchReplayer &replayer, const SweepGrid &grid,
                 const SweepEstimatorSpec &spec)
{
    const std::string &n = spec.estimator;
    if (n == "jrs" || n == "jrs-base") {
        JrsConfig jrs = spec.params.jrs;
        if (n == "jrs-base")
            jrs.enhanced = false;
        replayer.attachJrs(jrs, !grid.thresholds.empty());
    } else if (n == "satcnt") {
        replayer.attachSatCounters(grid.kind == PredictorKind::McFarling
                                       ? SatCountersVariant::BothStrong
                                       : SatCountersVariant::Selected);
    } else if (n == "satcnt-both") {
        replayer.attachSatCounters(SatCountersVariant::BothStrong);
    } else if (n == "satcnt-either") {
        replayer.attachSatCounters(SatCountersVariant::EitherStrong);
    } else if (n == "pattern") {
        replayer.attachPattern();
    } else {
        die("sampled synthetic jobs take devirtualized lanes only, not '"
            + n + "'");
    }
}

/** One synthetic scenario under the grid's sampling plan, as
 *  runShard() in harness/sweep.cc runs it, with a timed generator. */
SweepWorkloadResult
runSampledScenario(const SweepGrid &grid, const SyntheticScenario &scn,
                   Tracer &tr, JsonValue &counts)
{
    SyntheticOpSource synth(scn);
    TimedOpSource source(synth, tr);
    std::uint64_t local = 0;
    std::uint64_t covered = 0;
    BatchReplayer replayer(source.cover(0, 2, local, covered));
    for (const SweepEstimatorSpec &spec : grid.estimators)
        attachKernelLane(replayer, grid, spec);

    std::vector<SampledLaneStats> sampled;
    {
        Span span(tr, SamplingReplay);
        std::string error;
        if (!runSampledReplay(replayer, source, grid.sampling, sampled,
                              &error))
            die("sampled replay of '" + scn.name + "': " + error);
    }

    SweepWorkloadResult wl;
    wl.workload = scn.name;
    for (std::size_t j = 0; j < grid.estimators.size(); ++j) {
        const unsigned lane = static_cast<unsigned>(j);
        SweepConfigResult r;
        r.label = grid.estimators[j].label;
        r.estimator = grid.estimators[j].estimator;
        r.committed = replayer.committed(lane);
        r.all = replayer.all(lane);
        r.stats = replayer.estimatorStats(lane);
        r.hasLevels = replayer.hasLevels(lane);
        if (r.hasLevels)
            for (unsigned t : grid.thresholds)
                r.thresholds.push_back(
                        {t, replayer.levels(lane).atThresholdGe(t)});
        r.sampled = sampled[j];
        wl.configs.push_back(std::move(r));
    }
    const SampledLaneStats &s = sampled.front();
    auto add = [&counts](const char *key, std::uint64_t v) {
        counts[key] = JsonValue(counts[key].asUint() + v);
    };
    add("synthetic_branches", source.generatedBranches());
    add("ops_detailed", s.opsDetailed);
    add("ops_warmup", s.opsWarmup);
    add("ops_total", s.opsTotal);
    return wl;
}

/**
 * confsim --sweep GRID [--artifact-dir D] --jobs 1. Each recorded
 * trace is first brought in through its own layer call (record +
 * decode-and-store when @p cold, a warm artifact load otherwise), so
 * runSweepGrid() then replays from the in-process cache. Synthetic
 * scenarios run sampled, one at a time.
 */
JobOutput
runSweepJob(const JobArgs &a, bool cold, Tracer &tr)
{
    JobOutput out;
    SweepGrid grid;
    {
        Span span(tr, GridParse);
        std::ifstream in(a.sweepPath);
        std::ostringstream text;
        text << in.rdbuf();
        std::string err;
        const JsonValue doc = JsonValue::parse(text.str(), &err);
        if (!in || !err.empty() || !sweepGridFromJson(doc, grid, &err))
            die(a.sweepPath + ": " + err);
    }

    std::shared_ptr<ArtifactStore> store;
    SweepExecOptions exec;
    exec.jobs = 1;
    if (!a.artifactDir.empty()) {
        store = std::make_shared<ArtifactStore>(a.artifactDir);
        exec.journalPath = a.artifactDir + "/sweep-"
            + hexDigest(sweepGridKey(grid)) + ".journal";
    }
    setGlobalArtifactStore(store);

    SweepResult result;
    if (!grid.synthetic.empty()) {
        if (!grid.workloads.empty() || !grid.sampling.enabled())
            die("synthetic jobs must be sampled and synthetic-only");
        result.grid = grid;
        for (const SyntheticScenario &scn : grid.synthetic)
            result.workloads.push_back(
                    runSampledScenario(grid, scn, tr, out.counts));
    } else {
        std::vector<const WorkloadSpec *> specs;
        for (const WorkloadSpec &spec : standardWorkloads())
            if (grid.workloads.empty()
                || std::find(grid.workloads.begin(),
                             grid.workloads.end(), spec.name)
                       != grid.workloads.end())
                specs.push_back(&spec);
        const std::vector<PredictorKind> kinds = grid.kinds.empty()
            ? std::vector<PredictorKind>{grid.kind} : grid.kinds;
        const bool profiled =
            std::any_of(grid.estimators.begin(), grid.estimators.end(),
                        [](const SweepEstimatorSpec &s) {
                            return s.estimator == "static";
                        });
        std::uint64_t loadBytes = 0;
        std::uint64_t encodedBytes = 0;
        std::uint64_t traceBranches = 0;
        for (PredictorKind kind : kinds) {
            for (const WorkloadSpec *spec : specs) {
                if (cold || profiled) {
                    Span span(tr, Build);
                    cachedProgram(*spec, grid.workload);
                }
                std::shared_ptr<const DecodedRun> dec;
                if (cold) {
                    {
                        Span span(tr, Record);
                        encodedBytes += cachedRecordedRun(
                                kind, *spec, grid.workload,
                                grid.pipeline)->trace.size();
                    }
                    Span span(tr, DecodeStore);
                    dec = cachedDecodedRun(kind, *spec, grid.workload,
                                           grid.pipeline);
                } else {
                    Span span(tr, ArtifactLoad);
                    dec = cachedDecodedRun(kind, *spec, grid.workload,
                                           grid.pipeline);
                    loadBytes += traceBytes(dec->trace);
                }
                traceBranches += dec->trace.size();
                if (profiled) {
                    Span span(tr, Profile);
                    cachedProfile(kind, *spec, grid.workload);
                }
            }
        }
        {
            Span span(tr, SweepReplay);
            result = runSweepGrid(grid, exec);
        }
        out.counts["artifact_load_bytes"] = JsonValue(loadBytes);
        out.counts["encoded_bytes"] = JsonValue(encodedBytes);
        out.counts["trace_branches"] = JsonValue(traceBranches);
        std::uint64_t lanes = 0;
        for (const SweepWorkloadResult &wl : result.workloads)
            for (const SweepConfigResult &c : wl.configs)
                lanes += c.committed.total();
        out.counts["lane_branches"] = JsonValue(lanes);
    }

    {
        Span span(tr, JsonOut);
        out.doc = sweepResultToJson(result);
        out.counts["json_bytes"] =
            JsonValue(std::uint64_t{out.doc.dump(2).size()});
    }
    if (store) {
        const ArtifactStoreStats s = store->stats();
        out.counts["artifact_hits"] = JsonValue(s.hits);
        out.counts["artifact_misses"] = JsonValue(s.misses);
        out.counts["artifact_corrupt"] = JsonValue(s.corruptArtifacts);
    }
    return out;
}

/** Delete D's sweep journals: a journal hit would skip the replay. */
void
dropJournals(const std::string &dir)
{
    if (dir.empty() || !std::filesystem::is_directory(dir))
        return;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".journal")
            std::filesystem::remove(entry.path());
}

JsonValue
cacheCountsJson(const ExperimentCacheStats &s)
{
    JsonValue v = JsonValue::object();
    v["program_hits"] = JsonValue(s.programHits);
    v["program_misses"] = JsonValue(s.programMisses);
    v["profile_hits"] = JsonValue(s.profileHits);
    v["profile_misses"] = JsonValue(s.profileMisses);
    v["recorded_hits"] = JsonValue(s.recordedHits);
    v["recorded_misses"] = JsonValue(s.recordedMisses);
    v["decoded_hits"] = JsonValue(s.decodedHits);
    v["decoded_misses"] = JsonValue(s.decodedMisses);
    return v;
}

struct Job
{
    bool cold = false;
    bool keep = false;
    JobArgs args;
};

Job
parseJob(const std::string &line)
{
    std::string err;
    const JsonValue v = JsonValue::parse(line, &err);
    const JsonValue *argv = v.find("args");
    if (!err.empty() || argv == nullptr || !argv->isArray())
        die("bad job line: " + line);
    Job job;
    job.cold = v.find("cold") != nullptr && v.find("cold")->asBool();
    job.keep = v.find("keep") != nullptr && v.find("keep")->asBool();
    job.args = parseArgs(*argv);
    return job;
}

void
writeTrace(const std::string &path, const Tracer &tr)
{
    JsonValue events = JsonValue::array();
    for (const SpanEvent &s : tr.events()) {
        JsonValue e = JsonValue::object();
        e["name"] = JsonValue(s.name);
        e["cat"] = JsonValue(s.name == "job" ? "job" : "layer");
        e["ph"] = JsonValue("X");
        e["ts"] = JsonValue(s.startUs);
        e["dur"] = JsonValue(s.durUs);
        e["pid"] = JsonValue(std::uint64_t{1});
        e["tid"] = JsonValue(std::uint64_t{1});
        JsonValue args = s.args;
        if (!s.parent.empty())
            args["parent"] = JsonValue(s.parent);
        e["args"] = args;
        events.push(e);
    }
    JsonValue doc = JsonValue::object();
    doc["traceEvents"] = events;
    doc["displayTimeUnit"] = JsonValue("ms");
    std::ofstream out(path);
    out << doc.dump(0) << "\n";
    if (!out)
        die("cannot write " + path);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: layer_trace TRACE.json < JOBS > "
                             "RESULTS\n");
        return 2;
    }
    try {
        Tracer tr;
        std::uint64_t index = 0;
        std::string line;
        while (std::getline(std::cin, line)) {
            const Job job = parseJob(line);
            dropJournals(job.args.artifactDir);
            JsonValue spanArgs = JsonValue::object();
            spanArgs["job"] = JsonValue(index++);
            tr.beginJob(job.keep, spanArgs);
            JobOutput out = job.args.sweepPath.empty()
                ? runPipelineJob(job.args, tr)
                : runSweepJob(job.args, job.cold, tr);
            const double jobS = tr.endJob();

            JsonValue answer = JsonValue::object();
            answer["job_s"] = JsonValue(jobS);
            JsonValue self = JsonValue::object();
            for (int l = 0; l < LAYERS; ++l)
                self[LAYER_NAMES[l]] = JsonValue(tr.self(l));
            answer["self_s"] = self;
            out.counts["cache"] = cacheCountsJson(experimentCacheStats());
            answer["counts"] = out.counts;
            answer["doc_hash"] =
                JsonValue(hexDigest(xxhash64(out.doc.dump(0))));
            if (job.keep)
                answer["doc"] = out.doc;
            std::cout << answer.dump(0) << std::endl;

            setGlobalArtifactStore(nullptr);
            clearExperimentCaches();
        }
        writeTrace(argv[1], tr);
    } catch (const std::exception &e) {
        die(e.what());
    }
    return 0;
}

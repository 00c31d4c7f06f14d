// End-to-end private-inference benchmark driver.
//
//   pibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds a random-initialised zoo model and random 32x32 inputs from the
// seed, compiles the model, runs closed-loop private inferences for the
// given time, checks every result against plaintext inference, and
// prints one JSON line: the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1). README.md
// describes the workloads and every metric.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "link.hpp"
#include "net/channel.hpp"
#include "net/runtime.hpp"
#include "net/tcp.hpp"
#include "nn/zoo.hpp"
#include "pi/bootstrap.hpp"
#include "pi/serving_pool.hpp"
#include "pi/session.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace pibench {
namespace {

namespace nn = c2pi::nn;
namespace mpc = c2pi::mpc;
using c2pi::require;
using c2pi::Tensor;

/// Taken during static initialisation, before main: setup_s counts from
/// here.
const Clock::time_point kProcessStart = Clock::now();

constexpr double kMiB = 1024.0 * 1024.0;
/// Fixed-point error bound on every logit (frac_bits 16, the repo's own
/// PI test tolerance). The argmax must agree with plaintext wherever the
/// plaintext top-2 margin exceeds it.
constexpr float kLogitBound = 0.02F;
constexpr int kInputPool = 8;       ///< distinct inputs per run, used round-robin
constexpr int kTailWindowMs = 20;   ///< serving pool's clear-tail batching window

struct Workload {
    const char* name;
    const char* model;  ///< zoo id
    std::optional<nn::CutPoint> boundary;  ///< nullopt = full PI
    pi::PiBackend backend;
    std::optional<mpc::NonlinearBackend> nonlinear;  ///< nullopt = the family's native one
    const LinkParams* link;  ///< in-process over a modeled link; null = ServingPool over TCP
    int threads;             ///< HE threads of each party's compiled model
    int clients;             ///< concurrent closed-loop clients
};

const Workload kWorkloads[] = {
    {"c2pi-cheetah-lan", "vgg16", nn::CutPoint{.linear_index = 4, .after_relu = false},
     pi::PiBackend::kCheetah, std::nullopt, &kLan, 4, 1},
    {"fullpi-delphi-wan", "vgg16", std::nullopt, pi::PiBackend::kDelphi, std::nullopt, &kWan, 4,
     1},
    {"serve-resnet9-fss", "resnet9", nn::CutPoint{.linear_index = 5, .after_relu = false},
     pi::PiBackend::kCheetah, mpc::NonlinearBackend::kFss, nullptr, 1, 2},
};

struct Args {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload") {
            for (const Workload& w : kWorkloads)
                if (value == w.name) a.workload = &w;
            require(a.workload != nullptr, "unknown workload '" + value + "'");
        } else if (key == "--seed") {
            a.seed = std::stoull(value);
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::stod(value);
            have_seconds = a.seconds > 0.0;
        } else if (key == "--trace") {
            require(value == "0" || value == "1", "--trace takes 0 or 1");
            a.trace = value == "1";
            have_trace = true;
        } else {
            c2pi::fail("unknown argument '" + key + "'");
        }
    }
    require(a.workload != nullptr && have_seed && have_seconds && have_trace,
            "usage: pibench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    return a;
}

double median(std::vector<double> v) {
    require(!v.empty(), "median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mib() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t direction_bytes(const net::ChannelStats& s, int sender) {
    std::uint64_t total = 0;
    for (int p = 0; p < net::kNumPhases; ++p) total += s.bytes[p][sender];
    return total;
}

std::uint64_t total_messages(const net::ChannelStats& s) {
    std::uint64_t total = 0;
    for (int p = 0; p < net::kNumPhases; ++p) total += s.messages[p][0] + s.messages[p][1];
    return total;
}

/// Accumulates correctness failures; the first few are reported on stderr.
struct Checker {
    bool ok = true;
    int reported = 0;

    void expect(bool cond, const std::string& what) {
        if (cond) return;
        ok = false;
        if (reported++ < 5) std::fprintf(stderr, "[pibench] CHECK FAILED: %s\n", what.c_str());
    }

    void logits(const Tensor& got, const Tensor& want) {
        expect(got.numel() == want.numel(), "logit count differs from plaintext");
        if (got.numel() != want.numel()) return;
        float worst = 0.0F;
        std::int64_t got_arg = 0, want_arg = 0;
        for (std::int64_t i = 0; i < got.numel(); ++i) {
            worst = std::max(worst, std::fabs(got[i] - want[i]));
            if (got[i] > got[got_arg]) got_arg = i;
            if (want[i] > want[want_arg]) want_arg = i;
        }
        float runner_up = -INFINITY;
        for (std::int64_t i = 0; i < want.numel(); ++i)
            if (i != want_arg) runner_up = std::max(runner_up, want[i]);
        expect(worst <= kLogitBound,
               "logit error " + std::to_string(worst) + " exceeds the fixed-point bound");
        if (want[want_arg] - runner_up > kLogitBound)
            expect(got_arg == want_arg, "argmax differs from plaintext inference");
    }

    /// A modeled link cannot beat its own physics: each direction's bytes
    /// need bytes/bandwidth, and a chain of `flights` flights needs
    /// (flights - 1) one-way delays.
    void link_bounds(double latency_s, const net::ChannelStats& s, const LinkParams& link) {
        for (int sender = 0; sender < 2; ++sender)
            expect(latency_s >=
                       static_cast<double>(direction_bytes(s, sender)) / link.bytes_per_s,
                   "latency below the link's transmission time");
        expect(latency_s >= static_cast<double>(s.total_flights() - 1) * link.one_way_s,
               "latency below the link's flight delay");
    }

    void same_traffic(const net::ChannelStats& got, const net::ChannelStats& want,
                      const std::string& what) {
        bool same = true;
        for (int p = 0; p < net::kNumPhases; ++p) {
            same = same && got.flights[p] == want.flights[p];
            for (int s = 0; s < 2; ++s)
                same = same && got.bytes[p][s] == want.bytes[p][s] &&
                       got.messages[p][s] == want.messages[p][s];
        }
        expect(same, what);
    }
};

// ------------------------------------------------------------------ setup ---

struct Setup {
    std::unique_ptr<nn::Graph> model;  ///< heap: the compiled model keeps its address
    std::unique_ptr<pi::CompiledModel> compiled;
    std::vector<std::uint8_t> artifact_bytes;
    std::unique_ptr<pi::ClientModel> client;
    pi::SessionConfig config;
    double compile_s = 0.0;         ///< zoo build + server compile
    double client_compile_s = 0.0;  ///< artifact serialise + decode + client compile
};

Setup make_setup(const Workload& w, std::uint64_t seed) {
    nn::ModelConfig mc;
    mc.width_multiplier = 0.125F;
    mc.input_hw = 32;
    mc.seed = seed;
    const auto t0 = Clock::now();
    Setup s;
    s.model = std::make_unique<nn::Graph>(nn::zoo::build(w.model, mc));
    s.compiled = std::make_unique<pi::CompiledModel>(
        *s.model, pi::CompiledModel::Options{.input_chw = {3, 32, 32},
                                            .boundary = w.boundary,
                                            .he_ring_degree = 4096,
                                            .num_threads = w.threads});
    const auto t1 = Clock::now();
    s.artifact_bytes = s.compiled->artifact().serialize();
    s.client = std::make_unique<pi::ClientModel>(pi::ModelArtifact::deserialize(s.artifact_bytes),
                                                 w.threads);
    s.compile_s = seconds_between(t0, t1);
    s.client_compile_s = seconds_between(t1, Clock::now());
    s.config = pi::SessionConfig{.backend = w.backend, .noise_lambda = 0.0F, .seed = seed,
                                 .nonlinear = w.nonlinear, .pipeline = true};
    return s;
}

struct Inputs {
    std::vector<Tensor> x;
    std::vector<Tensor> want;  ///< plaintext logits
};

Inputs make_inputs(const nn::Graph& model, std::uint64_t seed) {
    Inputs in;
    c2pi::Rng rng(seed ^ 0x1A9E75EEDULL);
    for (int k = 0; k < kInputPool; ++k) {
        Tensor x({1, 3, 32, 32});
        for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1.0F, 1.0F);
        in.want.push_back(model.infer(x));
        in.x.push_back(std::move(x));
    }
    return in;
}

// ---------------------------------------------------------- two parties ---

/// Runs `server` and `client` as the two parties of one connection of
/// the workload's kind: in-process over a fresh modeled link, or a TCP
/// loopback connection (no pool). Rethrows the first party failure.
/// Returns the seconds receivers slept for the modeled link (0 over TCP).
double run_pair(const Workload& w, const std::function<void(net::Transport&)>& server,
                const std::function<void(net::Transport&)>& client) {
    if (w.link != nullptr) {
        ModeledLink link(*w.link);
        net::DuplexChannel channel;
        (void)net::run_two_party(
            channel,
            [&](net::Transport& t) {
                LinkTransport shaped(t, link);
                server(shaped);
            },
            [&](net::Transport& t) {
                LinkTransport shaped(t, link);
                client(shaped);
            });
        return link.slept_seconds();
    }
    net::TcpListener listener(0);
    std::exception_ptr server_error;
    std::thread server_thread([&] {
        try {
            auto t = listener.accept(30'000);
            server(*t);
            t->close();
        } catch (...) {
            server_error = std::current_exception();
        }
    });
    std::exception_ptr client_error;
    try {
        auto t = net::connect("127.0.0.1", listener.port(), 30'000);
        client(*t);
        t->close();
    } catch (...) {
        client_error = std::current_exception();
    }
    server_thread.join();
    if (server_error) std::rethrow_exception(server_error);
    if (client_error) std::rethrow_exception(client_error);
    return 0.0;
}

/// One untraced in-process session over the modeled link.
struct Inference {
    Tensor logits;
    double latency_s = 0.0;
    net::ChannelStats stats;
};

Inference inprocess_inference(const Workload& w, const Setup& s, const Tensor& x) {
    const pi::ServerSession server(*s.compiled, s.config);
    const pi::ClientSession client(*s.client, s.config);
    Inference out;
    const auto t0 = Clock::now();
    (void)run_pair(
        w, [&](net::Transport& t) { server.run(t); },
        [&](net::Transport& t) {
            out.logits = client.run(t, x);
            out.latency_s = seconds_between(t0, Clock::now());
            out.stats = t.stats();
        });
    return out;
}

// ---------------------------------------------------------- serving pool ---

/// A ServingPool on an ephemeral loopback port with its accept loop.
class PoolServer {
public:
    PoolServer(const pi::CompiledModel& model, const pi::SessionConfig& config, int workers)
        : pool_(model, config,
                pi::ServingPool::Options{.workers = workers, .tail_window_ms = kTailWindowMs},
                [this](const pi::ServingPool::SessionReport& r) {
                    const std::lock_guard<std::mutex> lock(mutex_);
                    reports_.push_back(r);
                }),
          listener_(0),
          accept_thread_([this] { accept_loop(); }) {}

    ~PoolServer() { stop(); }
    PoolServer(const PoolServer&) = delete;
    PoolServer& operator=(const PoolServer&) = delete;

    [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

    /// Stop accepting, finish every admitted session.
    void stop() {
        stop_ = true;
        if (accept_thread_.joinable()) accept_thread_.join();
        pool_.drain();
    }

    [[nodiscard]] pi::ServingPool::Stats stats() const { return pool_.stats(); }
    [[nodiscard]] std::vector<pi::ServingPool::SessionReport> reports() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return reports_;
    }
    [[nodiscard]] int accept_errors() const { return accept_errors_; }

private:
    void accept_loop() {
        while (!stop_) {
            try {
                auto t = listener_.try_accept(50);
                if (t) (void)pool_.serve(std::move(t));
            } catch (const std::exception& e) {
                ++accept_errors_;
                std::fprintf(stderr, "[pibench] accept failed: %s\n", e.what());
            }
        }
    }

    mutable std::mutex mutex_;
    std::vector<pi::ServingPool::SessionReport> reports_;
    pi::ServingPool pool_;
    net::TcpListener listener_;
    std::atomic<bool> stop_{false};
    std::atomic<int> accept_errors_{0};
    std::thread accept_thread_;  ///< last: starts after everything it uses
};

struct ServedInference {
    bool ok = false;
    int input = 0;
    Tensor logits;
    double latency_s = 0.0;
    double bootstrap_s = 0.0;  ///< connect until the first protocol message (traced only)
    net::ChannelStats stats;   ///< the client endpoint's own accounting
    Clock::time_point done;
};

struct ServingPass {
    std::vector<ServedInference> results;
    pi::ServingPool::Stats pool;
    std::vector<pi::ServingPool::SessionReport> reports;
    int accept_errors = 0;
};

/// `w.clients` closed-loop clients against one pool until `deadline`.
/// Each client keeps its own artifact cache and pins the digest it got
/// first, so it ships the artifact once and resumes from the cache after.
ServingPass serve_clients(const Workload& w, const Setup& s, const Inputs& in,
                          Clock::time_point deadline, bool traced) {
    PoolServer server(*s.compiled, s.config, w.clients);
    ServingPass pass;
    std::vector<std::vector<ServedInference>> per_client(static_cast<std::size_t>(w.clients));
    std::vector<std::thread> clients;
    for (int c = 0; c < w.clients; ++c) {
        clients.emplace_back([&, c] {
            pi::ArtifactCache cache;
            std::optional<pi::ArtifactDigest> pinned;
            for (int k = 0; Clock::now() < deadline; ++k) {
                ServedInference r;
                r.input = (c + k * w.clients) % kInputPool;
                try {
                    const auto t0 = Clock::now();
                    auto tcp = net::connect("127.0.0.1", server.port(), 30'000);
                    TraceLog log;
                    TimingTransport timed(*tcp, log);
                    net::Transport& t = traced ? static_cast<net::Transport&>(timed) : *tcp;
                    const pi::Bootstrap boot = pi::fetch_artifact(t, &cache, pinned, w.threads);
                    pinned = boot.digest;
                    r.logits = pi::ClientSession(*boot.model, s.config)
                                   .run(t, in.x[static_cast<std::size_t>(r.input)]);
                    r.done = Clock::now();
                    r.latency_s = seconds_between(t0, r.done);
                    r.bootstrap_s = traced ? seconds_between(t0, timed.first_recv()) : 0.0;
                    r.stats = tcp->stats();
                    tcp->close();
                    r.ok = true;
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "[pibench] client %d inference failed: %s\n", c,
                                 e.what());
                }
                per_client[static_cast<std::size_t>(c)].push_back(std::move(r));
            }
        });
    }
    for (auto& t : clients) t.join();
    server.stop();
    pass.pool = server.stats();
    pass.reports = server.reports();
    pass.accept_errors = server.accept_errors();
    for (auto& v : per_client)
        for (auto& r : v) pass.results.push_back(std::move(r));
    return pass;
}

/// Serving-path checks: every completed inference correct, every served
/// session's server-side accounting equal to the client endpoint's own,
/// nothing rejected or failed, and the pool served exactly the sessions
/// the clients saw complete.
void check_serving(Checker& check, const ServingPass& pass, const Inputs& in) {
    std::uint64_t completed = 0;
    const ServedInference* first = nullptr;
    for (const ServedInference& r : pass.results) {
        if (!r.ok) continue;
        ++completed;
        if (first == nullptr) first = &r;
        check.logits(r.logits, in.want[static_cast<std::size_t>(r.input)]);
        check.same_traffic(r.stats, first->stats, "served sessions moved different traffic");
    }
    for (const auto& report : pass.reports) {
        if (!report.ok || first == nullptr) continue;
        const pi::PiStats want = pi::stats_from_channel(first->stats);
        check.expect(report.stats.total_bytes() == want.total_bytes() &&
                         report.stats.online_bytes == want.online_bytes &&
                         report.stats.total_flights() == want.total_flights(),
                     "server endpoint and client endpoint count different traffic");
    }
    check.expect(pass.pool.rejected == 0, "serving pool rejected sessions");
    check.expect(pass.pool.failed == 0, "serving pool sessions failed");
    check.expect(pass.accept_errors == 0, "serving pool accept loop failed");
    check.expect(pass.pool.served == completed,
                 "pool served count differs from client-observed completions");
}

// ------------------------------------------------------------- metrics ---

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                      metrics[i].unit);
        out += buf;
    }
    out += "}}";
    return out;
}

/// Benchmark outputs go to pibench-out/ under the working directory.
void write_output(const std::string& name, const std::string& content) {
    std::filesystem::create_directories("pibench-out");
    const std::string path = "pibench-out/" + name;
    FILE* f = std::fopen(path.c_str(), "w");
    require(f != nullptr, "cannot write " + path);
    std::fputs(content.c_str(), f);
    std::fclose(f);
}

const char* step_name(StepKind k) {
    switch (k) {
        case StepKind::kSetup: return "setup";
        case StepKind::kPreprocess: return "preprocess";
        case StepKind::kConv: return "conv";
        case StepKind::kLinear: return "linear";
        case StepKind::kRelu: return "relu";
        case StepKind::kMaxPool: return "maxpool";
        case StepKind::kLocal: return "local";
        case StepKind::kReveal: return "reveal";
        case StepKind::kTail: return "tail";
    }
    return "?";
}

/// Per-inference traffic metrics shared by every workload.
void add_traffic(std::vector<Metric>& m, const net::ChannelStats& s) {
    m.push_back({"comm_mib", static_cast<double>(s.total_bytes()) / kMiB, "MiB"});
    m.push_back({"online_mib", static_cast<double>(s.phase_bytes(net::Phase::kOnline)) / kMiB,
                 "MiB"});
    m.push_back({"flights", static_cast<double>(s.total_flights()), "count"});
}

struct RunCounts {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

// ------------------------------------------------------- untraced run ---

RunCounts untraced_run(const Workload& w, const Setup& s, const Inputs& in, double setup_s,
                       double seconds, Checker& check, std::vector<Metric>& m) {
    RunCounts counts;
    std::vector<double> latencies;
    net::ChannelStats traffic;
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    Clock::time_point end = start;
    if (w.link != nullptr) {
        for (int k = 0; k == 0 || Clock::now() < deadline; ++k) {
            const auto idx = static_cast<std::size_t>(k % kInputPool);
            ++counts.attempted;
            const Inference r = inprocess_inference(w, s, in.x[idx]);
            check.logits(r.logits, in.want[idx]);
            check.link_bounds(r.latency_s, r.stats, *w.link);
            if (k > 0) check.same_traffic(r.stats, traffic, "inferences moved different traffic");
            traffic = r.stats;
            latencies.push_back(r.latency_s);
        }
        end = Clock::now();
    } else {
        const ServingPass pass = serve_clients(w, s, in, deadline, false);
        check_serving(check, pass, in);
        for (const ServedInference& r : pass.results) {
            ++counts.attempted;
            if (!r.ok) {
                ++counts.failed;
                continue;
            }
            latencies.push_back(r.latency_s);
            traffic = r.stats;
            end = std::max(end, r.done);
        }
    }
    const double cpu = cpu_seconds() - cpu0;
    const auto completed = static_cast<double>(latencies.size());
    require(completed > 0, "no inference completed");
    m.push_back({"latency_s", median(latencies), "s"});
    m.push_back({"throughput_ips", completed / seconds_between(start, end), "1/s"});
    add_traffic(m, traffic);
    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"cpu_s", cpu / completed, "s"});
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    std::fprintf(stderr, "[pibench] %s: %zu inferences, median latency %.3f s\n", w.name,
                 latencies.size(), median(latencies));
    return counts;
}

// --------------------------------------------------------- traced run ---

/// Per-inference per-layer values of one traced round, by metric name.
using Sample = std::map<std::string, double>;

/// The mpc.<op> metric a span feeds, or null for spans outside them.
const char* step_metric_name(StepKind k) {
    switch (k) {
        case StepKind::kConv:
        case StepKind::kLinear:
        case StepKind::kRelu:
        case StepKind::kMaxPool:
        case StepKind::kReveal: return step_name(k);
        default: return nullptr;
    }
}

/// Pass A: the real sessions through the public API, each endpoint
/// wrapped in a TimingTransport, the clear tail timed through the
/// ServerSession::run(transport, tail) hook.
struct SessionPass {
    Tensor logits;
    net::ChannelStats client_stats, server_stats;
    double server_s = 0.0, client_s = 0.0, tail_s = 0.0, bootstrap_s = 0.0, link_s = 0.0;
    EndpointTimes server_net, client_net;
};

EndpointTimes sum_times(const std::map<int, EndpointTimes>& times) {
    EndpointTimes total;
    for (const auto& [span, t] : times) {
        total.send_s += t.send_s;
        total.recv_s += t.recv_s;
    }
    return total;
}

SessionPass session_pass(const Workload& w, const Setup& s, const Tensor& x) {
    SessionPass out;
    TraceLog log;
    const pi::ServerSession server(*s.compiled, s.config);
    const pi::ClientSession client(*s.client, s.config);
    const auto t0 = Clock::now();
    out.link_s = run_pair(
        w,
        [&](net::Transport& inner) {
            TimingTransport t(inner, log);
            const auto start = Clock::now();
            server.run(t, [&](const Tensor& act) {
                const auto tail0 = Clock::now();
                Tensor logits = s.compiled->run_clear_tail(act);
                out.tail_s = seconds_between(tail0, Clock::now());
                return logits;
            });
            out.server_s = seconds_between(start, Clock::now());
            out.server_net = sum_times(t.times());
            out.server_stats = t.stats();
        },
        [&](net::Transport& inner) {
            TimingTransport t(inner, log);
            const auto start = Clock::now();
            out.logits = client.run(t, x);
            out.client_s = seconds_between(start, Clock::now());
            out.bootstrap_s = seconds_between(t0, t.first_recv());
            out.client_net = sum_times(t.times());
            out.client_stats = t.stats();
        });
    return out;
}

/// Pass B: the plan replayed entry by entry; returns per-op samples and
/// checks its traffic and logits against pass A.
void replay_pass(const Workload& w, const Setup& s, const Tensor& x, const SessionPass& a,
                 Checker& check, Sample& out, int round, std::string& trace) {
    TraceLog log;
    std::vector<double> wall[2];
    std::map<int, EndpointTimes> times[2];
    Tensor logits;
    (void)run_pair(
        w,
        [&](net::Transport& inner) {
            TimingTransport t(inner, log);
            replay_server(*s.compiled, s.config, t, wall[0]);
            times[0] = t.times();
        },
        [&](net::Transport& inner) {
            TimingTransport t(inner, log);
            logits = replay_client(*s.client, s.config, t, x, wall[1]);
            times[1] = t.times();
        });

    const std::vector<Step> steps = replay_steps(s.compiled->artifact());
    const std::map<int, net::ChannelStats> traffic = log.spans();
    net::ChannelStats sum;
    for (const char* op : {"conv", "linear", "relu", "maxpool", "reveal"})
        for (const char* field :
             {"server_s", "client_s", "server_wait_s", "client_wait_s", "mib", "flights", "count"})
            out[std::string("mpc.") + op + "." + field] = 0.0;
    for (std::size_t id = 0; id < steps.size(); ++id) {
        const int span = static_cast<int>(id);
        net::ChannelStats st;
        if (const auto it = traffic.find(span); it != traffic.end()) st = it->second;
        for (int p = 0; p < net::kNumPhases; ++p) {
            sum.flights[p] += st.flights[p];
            for (int sender = 0; sender < 2; ++sender) {
                sum.bytes[p][sender] += st.bytes[p][sender];
                sum.messages[p][sender] += st.messages[p][sender];
            }
        }
        const EndpointTimes sv = times[0].count(span) ? times[0].at(span) : EndpointTimes{};
        const EndpointTimes cl = times[1].count(span) ? times[1].at(span) : EndpointTimes{};
        char line[512];
        std::snprintf(line, sizeof(line),
                      "{\"round\": %d, \"pass\": \"replay\", \"span\": %d, \"kind\": \"%s\", "
                      "\"elements\": %lld, \"server_s\": %.9f, \"client_s\": %.9f, "
                      "\"server_wait_s\": %.9f, \"client_wait_s\": %.9f, \"bytes\": %llu, "
                      "\"messages\": %llu, \"flights\": %llu}\n",
                      round, span, step_name(steps[id].kind),
                      static_cast<long long>(steps[id].elements), wall[0][id], wall[1][id],
                      sv.send_s + sv.recv_s, cl.send_s + cl.recv_s,
                      static_cast<unsigned long long>(st.total_bytes()),
                      static_cast<unsigned long long>(total_messages(st)),
                      static_cast<unsigned long long>(st.total_flights()));
        trace += line;
        if (steps[id].kind == StepKind::kPreprocess) {
            out["fss.deal_s"] = wall[0][id];
            out["fss.recv_s"] = wall[1][id];
            out["fss.keys_mib"] =
                static_cast<double>(st.phase_bytes(net::Phase::kPreprocess)) / kMiB;
        }
        const char* op = step_metric_name(steps[id].kind);
        if (op == nullptr) continue;
        const std::string p = std::string("mpc.") + op + ".";
        out[p + "server_s"] += wall[0][id];
        out[p + "client_s"] += wall[1][id];
        out[p + "server_wait_s"] += sv.send_s + sv.recv_s;
        out[p + "client_wait_s"] += cl.send_s + cl.recv_s;
        out[p + "mib"] += static_cast<double>(st.total_bytes()) / kMiB;
        out[p + "flights"] += static_cast<double>(st.total_flights());
        out[p + "count"] += static_cast<double>(steps[id].elements);
    }
    out["fss.comparisons"] =
        pi::resolve_nonlinear(s.config) == mpc::NonlinearBackend::kFss
            ? static_cast<double>(pi::count_fss_comparisons(s.compiled->plan()))
            : 0.0;

    check.same_traffic(sum, a.client_stats,
                       "replayed per-entry traffic differs from the session's ChannelStats");
    bool identical = logits.numel() == a.logits.numel();
    for (std::int64_t i = 0; identical && i < logits.numel(); ++i)
        identical = logits[i] == a.logits[i];
    check.expect(identical, "replayed logits differ from the session's logits");
}

RunCounts traced_run(const Workload& w, const Setup& s, const Inputs& in, double seconds,
                     Checker& check, std::vector<Metric>& m, std::string& trace) {
    RunCounts counts;
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    std::vector<Sample> samples;
    Sample pool_sample;

    if (w.link == nullptr) {
        // The serving path first, for the pool-level metrics; the session
        // and replay passes below share the rest of the run.
        const auto serve_deadline = start + (deadline - start) / 2;
        const ServingPass pass = serve_clients(w, s, in, serve_deadline, true);
        check_serving(check, pass, in);
        std::vector<double> bootstrap;
        for (const ServedInference& r : pass.results) {
            ++counts.attempted;
            if (r.ok) bootstrap.push_back(r.bootstrap_s);
            else ++counts.failed;
        }
        require(!bootstrap.empty(), "no served inference completed");
        const auto served = static_cast<double>(std::max<std::uint64_t>(pass.pool.served, 1));
        pool_sample["pi.bootstrap_s"] = median(bootstrap);
        pool_sample["pi.pool.artifact_skips"] = static_cast<double>(pass.pool.artifact_skips);
        pool_sample["pi.pool.concurrent_peak"] = pass.pool.concurrent_peak;
        pool_sample["pi.pool.server_wall_s"] = pass.pool.traffic.wall_seconds / served;
        pool_sample["pi.tail_batch_size"] =
            pass.pool.tail_batches == 0 ? 0.0
                                        : static_cast<double>(pass.pool.tail_requests) /
                                              static_cast<double>(pass.pool.tail_batches);
    }

    for (int k = 0; k == 0 || Clock::now() < deadline; ++k) {
        const auto idx = static_cast<std::size_t>(k % kInputPool);
        counts.attempted += 2;
        const SessionPass a = session_pass(w, s, in.x[idx]);
        check.logits(a.logits, in.want[idx]);
        if (w.link == nullptr)
            check.same_traffic(a.server_stats, a.client_stats,
                               "TCP endpoints count different traffic");
        else
            check.link_bounds(a.client_s, a.client_stats, *w.link);

        Sample smp;
        char line[256];
        std::snprintf(line, sizeof(line),
                      "{\"round\": %d, \"pass\": \"session\", \"server_s\": %.9f, "
                      "\"client_s\": %.9f, \"clear_tail_s\": %.9f, \"bootstrap_s\": %.9f, "
                      "\"link_delay_s\": %.9f}\n",
                      k, a.server_s, a.client_s, a.tail_s, a.bootstrap_s, a.link_s);
        trace += line;
        replay_pass(w, s, in.x[idx], a, check, smp, k, trace);
        const net::ChannelStats& st = a.client_stats;
        smp["net.server.recv_wait_s"] = a.server_net.recv_s;
        smp["net.client.recv_wait_s"] = a.client_net.recv_s;
        smp["net.server.send_s"] = a.server_net.send_s;
        smp["net.client.send_s"] = a.client_net.send_s;
        smp["net.messages"] = static_cast<double>(total_messages(st));
        smp["net.mib.offline"] = static_cast<double>(st.phase_bytes(net::Phase::kOffline)) / kMiB;
        smp["net.mib.online"] = static_cast<double>(st.phase_bytes(net::Phase::kOnline)) / kMiB;
        smp["net.mib.preprocess"] =
            static_cast<double>(st.phase_bytes(net::Phase::kPreprocess)) / kMiB;
        smp["net.flights.offline"] = static_cast<double>(st.phase_flights(net::Phase::kOffline));
        smp["net.flights.online"] = static_cast<double>(st.phase_flights(net::Phase::kOnline));
        smp["net.link_delay_s"] = a.link_s;
        smp["pi.server_session_s"] = a.server_s;
        smp["pi.client_session_s"] = a.client_s;
        smp["pi.clear_tail_s"] = a.tail_s;
        if (w.link != nullptr) {
            // In-process sessions have no pool: the session's own view.
            smp["pi.bootstrap_s"] = a.bootstrap_s;
            smp["pi.pool.artifact_skips"] = 0.0;
            smp["pi.pool.concurrent_peak"] = 0.0;
            smp["pi.pool.server_wall_s"] = a.server_s;
            smp["pi.tail_batch_size"] = s.compiled->full_pi() ? 0.0 : 1.0;
        }
        samples.push_back(std::move(smp));
    }

    std::map<std::string, std::vector<double>> by_name;
    for (const Sample& smp : samples)
        for (const auto& [name, v] : smp) by_name[name].push_back(v);
    for (const auto& [name, v] : pool_sample) by_name[name] = {v};
    by_name["pi.compile_s"] = {s.compile_s};
    by_name["pi.client_compile_s"] = {s.client_compile_s};
    by_name["pi.artifact_kib"] = {static_cast<double>(s.artifact_bytes.size()) / 1024.0};
    for (const auto& [name, v] : by_name) {
        const char* unit = name.ends_with("_s")     ? "s"
                           : name.ends_with("_kib") ? "KiB"
                           : name.ends_with("mib") || name.starts_with("net.mib.") ? "MiB"
                                                                                   : "count";
        m.push_back({name, median(v), unit});
    }
    std::fprintf(stderr,
                 "[pibench] %s traced: %zu rounds, traced session latency %.3f s (client)\n",
                 w.name, samples.size(), median(by_name["pi.client_session_s"]));
    if (w.link != nullptr) {
        // The additive formula this benchmark replaces, for comparison:
        // an unshaped session's wall time plus bytes/bandwidth plus
        // flights x one-way delay. Reported on stderr only.
        ++counts.attempted;
        const pi::PiResult r = pi::run_private_inference(*s.compiled, s.config, in.x.front());
        check.logits(r.logits, in.want.front());
        const c2pi::net::NetworkModel model{w.link->name, w.link->bytes_per_s,
                                            2.0 * w.link->one_way_s};
        std::fprintf(stderr,
                     "[pibench] %s: additive PiStats::latency_seconds %.3f s (unshaped wall "
                     "%.3f s) vs modeled-link session %.3f s\n",
                     w.name, r.stats.latency_seconds(model), r.stats.wall_seconds,
                     median(by_name["pi.client_session_s"]));
    }
    return counts;
}

int run(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    const Workload& w = *args.workload;
    Setup s = make_setup(w, args.seed);
    const double setup_s = seconds_between(kProcessStart, Clock::now());
    const Inputs in = make_inputs(*s.model, args.seed);

    Checker check;
    std::vector<Metric> metrics;
    std::string trace;
    const RunCounts counts =
        args.trace ? traced_run(w, s, in, args.seconds, check, metrics, trace)
                   : untraced_run(w, s, in, setup_s, args.seconds, check, metrics);
    const std::string result = result_json(check.ok, counts.attempted, counts.failed, metrics);
    const std::string stem = std::string(w.name) + "-seed" + std::to_string(args.seed);
    if (args.trace) write_output(stem + ".trace.jsonl", trace);
    write_output(stem + (args.trace ? "-trace1.json" : "-trace0.json"), result + "\n");
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return check.ok ? 0 : 1;
}

}  // namespace
}  // namespace pibench

int main(int argc, char** argv) {
    try {
        return pibench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[pibench] error: %s\n", e.what());
        return 2;
    }
}

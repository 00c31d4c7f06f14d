// Self-test of the modeled link (link.hpp). Checks the three properties
// the benchmark's LAN/WAN latencies rest on:
//   1. a message of B bytes sent at t is not delivered before
//      t + one-way delay + B / bandwidth;
//   2. delivery is FIFO and serialised per direction, and the two
//      directions do not queue behind each other;
//   3. ChannelStats bytes, messages and flights (and the logits) of real
//      PI sessions are identical with and without the decorator.
// Prints one line per check; exits 1 if any fails.
//
//   python3 pibench/run.py --selftest

#include <cstdio>
#include <string>

#include "link.hpp"
#include "net/channel.hpp"
#include "net/runtime.hpp"
#include "nn/zoo.hpp"
#include "pi/session.hpp"

namespace {

using namespace pibench;
namespace pi = c2pi::pi;
using Clock = std::chrono::steady_clock;

// A slow link so scheduling noise is small next to the modeled delays:
// 4 MiB/s, 10 ms one way.
constexpr LinkParams kTestLink{"test", 4.0 * 1024 * 1024, 10e-3};

int failures = 0;

void check(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
}

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double transmit(std::size_t bytes) {
    return static_cast<double>(bytes) / kTestLink.bytes_per_s;
}

std::vector<std::uint8_t> message(std::size_t bytes, std::uint8_t tag) {
    return std::vector<std::uint8_t>(bytes, tag);
}

void delivery_time() {
    net::DuplexChannel channel;
    ModeledLink link(kTestLink);
    constexpr std::size_t kBytes = 200 * 1024;
    double arrived = 0.0;
    Clock::time_point t0;
    (void)net::run_two_party(
        channel,
        [&](net::Transport& inner) {
            LinkTransport t(inner, link);
            t0 = Clock::now();
            t.send_bytes(message(kBytes, 1));
        },
        [&](net::Transport& inner) {
            LinkTransport t(inner, link);
            (void)t.recv_bytes();
            arrived = since(t0);
        });
    const double due = kTestLink.one_way_s + transmit(kBytes);
    check(arrived >= due, "B bytes sent at t arrive no earlier than t + delay + B/bw (" +
                              std::to_string(arrived * 1e3) + " ms >= " +
                              std::to_string(due * 1e3) + " ms)");
}

void fifo_and_serialised() {
    net::DuplexChannel channel;
    ModeledLink link(kTestLink);
    const std::size_t sizes[] = {64 * 1024, 128 * 1024, 32 * 1024};
    double arrived[3] = {};
    bool in_order = true;
    double reverse_arrived = 0.0;
    Clock::time_point t0 = Clock::now();
    (void)net::run_two_party(
        channel,
        [&](net::Transport& inner) {
            LinkTransport t(inner, link);
            for (std::uint8_t k = 0; k < 3; ++k) t.send_bytes(message(sizes[k], k));
            (void)t.recv_bytes();
            reverse_arrived = since(t0);
        },
        [&](net::Transport& inner) {
            LinkTransport t(inner, link);
            t.send_bytes(message(1024, 9));  // the other direction, at the same time
            for (std::uint8_t k = 0; k < 3; ++k) {
                const auto m = t.recv_bytes();
                in_order = in_order && m.size() == sizes[k] && m.front() == k;
                arrived[k] = since(t0);
            }
        });
    check(in_order, "messages arrive in send order with their sizes");
    double queued = 0.0;
    bool serialised = true;
    for (int k = 0; k < 3; ++k) {
        queued += transmit(sizes[k]);
        serialised = serialised && arrived[k] >= kTestLink.one_way_s + queued;
    }
    check(serialised, "back-to-back messages queue behind each other: message k arrives after "
                      "delay + (bytes of messages 0..k)/bw");
    check(reverse_arrived < kTestLink.one_way_s + queued,
          "the reverse direction does not wait for the forward queue (" +
              std::to_string(reverse_arrived * 1e3) + " ms < " +
              std::to_string((kTestLink.one_way_s + queued) * 1e3) + " ms)");
}

/// Runs one inference with both endpoints shaped (or not) and returns the
/// channel's stats and the client's logits.
std::pair<net::ChannelStats, c2pi::Tensor> session(const pi::CompiledModel& model,
                                                   const pi::SessionConfig& config,
                                                   const c2pi::Tensor& x, bool shaped) {
    net::DuplexChannel channel;
    ModeledLink link(kLan);
    c2pi::Tensor logits;
    const pi::ServerSession server(model, config);
    const pi::ClientSession client(model, config);
    const auto run = net::run_two_party(
        channel,
        [&](net::Transport& inner) {
            if (!shaped) return server.run(inner);
            LinkTransport t(inner, link);
            server.run(t);
        },
        [&](net::Transport& inner) {
            if (!shaped) {
                logits = client.run(inner, x);
                return;
            }
            LinkTransport t(inner, link);
            logits = client.run(t, x);
        });
    return {run.stats, logits};
}

void stats_unchanged() {
    c2pi::nn::ModelConfig mc;
    mc.width_multiplier = 0.125F;
    mc.input_hw = 8;
    const c2pi::nn::Graph model = c2pi::nn::zoo::build("resnet9", mc);
    c2pi::Tensor x({1, 3, 8, 8});
    c2pi::Rng rng(7);
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = rng.uniform(-1.0F, 1.0F);

    const pi::CompiledModel c2pi_model(
        model, {.input_chw = {3, 8, 8},
                .boundary = c2pi::nn::CutPoint{.linear_index = 5, .after_relu = false}});
    const pi::CompiledModel full_model(model,
                                       {.input_chw = {3, 8, 8}, .boundary = std::nullopt});
    struct Case {
        const char* name;
        const pi::CompiledModel* model;
        pi::SessionConfig config;
    };
    const Case cases[] = {
        {"C2PI Cheetah/ot", &c2pi_model,
         {.backend = pi::PiBackend::kCheetah, .nonlinear = std::nullopt}},
        {"C2PI Cheetah/fss (KEYS channel)", &c2pi_model,
         {.backend = pi::PiBackend::kCheetah, .nonlinear = c2pi::mpc::NonlinearBackend::kFss}},
        {"full PI Delphi/gc", &full_model,
         {.backend = pi::PiBackend::kDelphi, .nonlinear = std::nullopt}},
    };
    for (const Case& c : cases) {
        const auto [plain_stats, plain_logits] = session(*c.model, c.config, x, false);
        const auto [shaped_stats, shaped_logits] = session(*c.model, c.config, x, true);
        bool same_logits = plain_logits.numel() == shaped_logits.numel();
        for (std::int64_t i = 0; same_logits && i < plain_logits.numel(); ++i)
            same_logits = plain_logits[i] == shaped_logits[i];
        check(plain_stats == shaped_stats && same_logits,
              std::string(c.name) + ": ChannelStats and logits identical with and without the "
                                    "link (" +
                  std::to_string(plain_stats.total_bytes()) + " B, " +
                  std::to_string(plain_stats.total_flights()) + " flights)");
    }
}

}  // namespace

int main() {
    try {
        delivery_time();
        fifo_and_serialised();
        stats_unchanged();
    } catch (const std::exception& e) {
        std::printf("FAIL  self-test raised: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", failures == 0 ? "link model self-test passed"
                                      : "link model self-test FAILED");
    return failures == 0 ? 0 : 1;
}

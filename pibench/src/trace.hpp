#pragma once

/// \file trace.hpp
/// Span recording for the traced run, from outside the library: a
/// `net::Transport` decorator that times every call into the transport
/// and tags every message with the span its sender is in.
///
/// The two endpoints of one connection share a `TraceLog`. Each send is
/// charged, in send order, to the sender's current span with the same
/// rule `net::ChannelStats::record` uses (bytes and messages per phase
/// and sender, a new flight whenever the direction turns over), so the
/// per-span traffic sums to a whole-connection ChannelStats computed by
/// an independent path. The protocols are sequential — a party only
/// answers after it has received the whole flight — so the send order
/// the log sees is the order every endpoint observes.

#include <chrono>
#include <map>
#include <mutex>

#include "net/transport.hpp"

namespace pibench {

namespace net = c2pi::net;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Per-span traffic of both parties of one connection.
class TraceLog {
public:
    void record_send(int span, int sender, net::Phase phase, std::size_t bytes) {
        const std::lock_guard<std::mutex> lock(mutex_);
        const bool opens_flight = last_sender_ != sender;
        last_sender_ = sender;
        net::ChannelStats& s = spans_[span];
        const int p = static_cast<int>(phase);
        s.bytes[p][sender] += bytes;
        s.messages[p][sender] += 1;
        if (opens_flight) s.flights[p] += 1;
    }

    /// Traffic charged to each span id.
    [[nodiscard]] std::map<int, net::ChannelStats> spans() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

private:
    mutable std::mutex mutex_;
    int last_sender_ = -1;
    std::map<int, net::ChannelStats> spans_;
};

/// Time one endpoint spent inside transport calls, per span.
struct EndpointTimes {
    double send_s = 0.0;  ///< inside send calls (copy, enqueue, backpressure)
    double recv_s = 0.0;  ///< blocked in recv calls until the message was in hand
};

/// One endpoint of a traced connection. The protocol thread that owns
/// the endpoint sets the current span; every call is timed and charged
/// to it.
class TimingTransport final : public net::Transport {
public:
    TimingTransport(net::Transport& inner, TraceLog& log)
        : Transport(inner.party_id()), inner_(&inner), log_(&log) {}

    /// Charge subsequent traffic and transport time to `span`.
    void set_span(int span) { span_ = span; }

    [[nodiscard]] const std::map<int, EndpointTimes>& times() const { return times_; }
    /// When this endpoint's first protocol message arrived (the end of
    /// the session bootstrap, seen from this side).
    [[nodiscard]] Clock::time_point first_recv() const { return first_recv_; }

    void send_bytes(std::span<const std::uint8_t> data) override {
        const auto t0 = Clock::now();
        log_->record_send(span_, party_, phase_, data.size());
        inner_->set_phase(phase_);
        inner_->send_bytes(data);
        times_[span_].send_s += seconds_between(t0, Clock::now());
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override {
        std::vector<std::uint8_t> out;
        recv_bytes_into(out);
        return out;
    }
    void recv_bytes_into(std::vector<std::uint8_t>& out) override {
        const auto t0 = Clock::now();
        inner_->set_phase(phase_);
        inner_->recv_bytes_into(out);
        received(t0);
    }
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override {
        const auto t0 = Clock::now();
        log_->record_send(span_, party_, net::Phase::kPreprocess, bytes.size());
        inner_->send_keys_bytes(bytes);
        times_[span_].send_s += seconds_between(t0, Clock::now());
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override {
        const auto t0 = Clock::now();
        auto out = inner_->recv_keys_bytes();
        received(t0);
        return out;
    }
    /// Artifact bootstrap frames are unmetered; they pass through untimed
    /// and untagged, like in ChannelStats.
    void send_artifact_bytes(std::span<const std::uint8_t> bytes) override {
        inner_->send_artifact_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_artifact_bytes() override {
        return inner_->recv_artifact_bytes();
    }

    [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }
    void set_pipelined_sends(bool enabled) override { inner_->set_pipelined_sends(enabled); }
    void flush_sends() override {
        const auto t0 = Clock::now();
        inner_->flush_sends();
        times_[span_].send_s += seconds_between(t0, Clock::now());
    }
    void abort_connection() noexcept override { inner_->abort_connection(); }

private:
    void received(Clock::time_point t0) {
        const auto t1 = Clock::now();
        if (first_recv_ == Clock::time_point{}) first_recv_ = t1;
        times_[span_].recv_s += seconds_between(t0, t1);
    }

    net::Transport* inner_;
    TraceLog* log_;
    int span_ = 0;
    std::map<int, EndpointTimes> times_;
    Clock::time_point first_recv_{};
};

}  // namespace pibench

#pragma once

/// \file link.hpp
/// Modeled network link: a `net::Transport` decorator that delays every
/// message the way a serialized link of fixed bandwidth and one-way delay
/// would, while leaving the traffic accounting untouched.
///
/// Both endpoints of one in-process session wrap their `InProcTransport`
/// and share one `ModeledLink`. Per direction the link is a single pipe:
/// a message of B bytes handed over at time t starts transmitting at
/// max(t, end of the previous transmission in that direction), occupies
/// the pipe for B / bandwidth, and is delivered one one-way delay after
/// its last byte left. The sender is never blocked for propagation; like
/// a socket with a bounded send buffer it blocks only while more than
/// kSendBuffer bytes wait for transmission, so a fast producer cannot
/// queue an unbounded backlog in memory. The receiver sleeps until the
/// delivery time after the inner transport hands it the message.
/// ChannelStats come
/// from the inner transport, so bytes and flights are exactly those of
/// an unshaped session (the self-test pins this).

#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

#include "net/transport.hpp"

namespace pibench {

namespace net = c2pi::net;
using c2pi::require;

struct LinkParams {
    const char* name;
    double bytes_per_s;
    double one_way_s;
};

/// The paper's links (384 MBps / 0.3 ms RTT and 44 MBps / 40 ms RTT), in
/// the same MiB-based units as `net::NetworkModel`, so the additive
/// formula and the modeled link describe the same pipe.
inline constexpr LinkParams kLan{"LAN", 384.0 * 1024 * 1024, 0.15e-3};
inline constexpr LinkParams kWan{"WAN", 44.0 * 1024 * 1024, 20.0e-3};

/// Untransmitted bytes a sender may queue before it blocks (a typical
/// Linux TCP send-buffer ceiling).
inline constexpr double kSendBuffer = 4.0 * 1024 * 1024;

class ModeledLink {
public:
    using Clock = std::chrono::steady_clock;

    explicit ModeledLink(LinkParams params) : params_(params) {}
    ModeledLink(const ModeledLink&) = delete;
    ModeledLink& operator=(const ModeledLink&) = delete;

    [[nodiscard]] const LinkParams& params() const { return params_; }

    /// Sender side: schedule one message of `bytes` from `sender`,
    /// first blocking while the send buffer is full. Must be called
    /// before the message enters the inner transport, so the receiver
    /// always finds its delivery time queued.
    void on_send(int sender, std::size_t bytes) {
        Direction& d = dir_[sender];
        std::unique_lock<std::mutex> lock(d.mutex);
        // Only this direction's sender moves free_at, so the wait time
        // computed here stays valid while the lock is released.
        const auto room_at = d.free_at - to_duration(kSendBuffer / params_.bytes_per_s);
        if (room_at > Clock::now()) {
            lock.unlock();
            std::this_thread::sleep_until(room_at);
            lock.lock();
        }
        const auto start = std::max(Clock::now(), d.free_at);
        d.free_at = start + to_duration(static_cast<double>(bytes) / params_.bytes_per_s);
        d.deliveries.push_back(d.free_at + to_duration(params_.one_way_s));
    }

    /// Receiver side: the inner transport has handed `receiver` its next
    /// message; sleep until that message's delivery time.
    void on_recv(int receiver) {
        Direction& d = dir_[1 - receiver];
        Clock::time_point due;
        {
            const std::lock_guard<std::mutex> lock(d.mutex);
            require(!d.deliveries.empty(), "modeled link: message without a delivery time");
            due = d.deliveries.front();
            d.deliveries.pop_front();
        }
        const auto now = Clock::now();
        if (due <= now) return;
        std::this_thread::sleep_until(due);
        const double slept = std::chrono::duration<double>(Clock::now() - now).count();
        const std::lock_guard<std::mutex> lock(d.mutex);
        d.slept_seconds += slept;
    }

    /// Seconds receivers have slept waiting for deliveries, both
    /// directions together.
    [[nodiscard]] double slept_seconds() {
        double total = 0.0;
        for (Direction& d : dir_) {
            const std::lock_guard<std::mutex> lock(d.mutex);
            total += d.slept_seconds;
        }
        return total;
    }

private:
    static Clock::duration to_duration(double seconds) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    }

    struct Direction {  ///< indexed by sender
        std::mutex mutex;
        Clock::time_point free_at{};
        std::deque<Clock::time_point> deliveries;
        double slept_seconds = 0.0;  ///< by the receiver of this direction
    };

    LinkParams params_;
    Direction dir_[2];
};

/// One endpoint's view of a ModeledLink over an inner transport.
class LinkTransport final : public net::Transport {
public:
    LinkTransport(net::Transport& inner, ModeledLink& link)
        : Transport(inner.party_id()), inner_(&inner), link_(&link) {}

    void send_bytes(std::span<const std::uint8_t> data) override {
        inner_->set_phase(phase_);
        link_->on_send(party_, data.size());
        inner_->send_bytes(data);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_bytes() override {
        inner_->set_phase(phase_);
        auto out = inner_->recv_bytes();
        link_->on_recv(party_);
        return out;
    }
    void recv_bytes_into(std::vector<std::uint8_t>& out) override {
        inner_->set_phase(phase_);
        inner_->recv_bytes_into(out);
        link_->on_recv(party_);
    }
    void send_keys_bytes(std::span<const std::uint8_t> bytes) override {
        link_->on_send(party_, bytes.size());
        inner_->send_keys_bytes(bytes);
    }
    [[nodiscard]] std::vector<std::uint8_t> recv_keys_bytes() override {
        auto out = inner_->recv_keys_bytes();
        link_->on_recv(party_);
        return out;
    }

    [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }
    void set_pipelined_sends(bool enabled) override { inner_->set_pipelined_sends(enabled); }
    void flush_sends() override { inner_->flush_sends(); }
    void abort_connection() noexcept override { inner_->abort_connection(); }

private:
    net::Transport* inner_;
    ModeledLink* link_;
};

}  // namespace pibench

#include "rpc/rpc.hpp"

#include <string>

#include "trace/trace.hpp"

namespace rpcoib::rpc {

sim::Co<void> RpcClient::call(net::Address addr, const MethodKey& key, const Writable& param,
                              Writable* response) {
  // One id per *logical* call: retried attempts re-send it, which is what
  // lets the server-side retry cache recognize duplicates.
  const std::uint64_t call_id = next_call_id_++;
  if (!retry_.enabled()) {
    co_await call_attempt(addr, key, param, response, call_id, false);
    if (session_.enabled) session_confirmed_.insert(addr);
    co_return;
  }

  cluster::Host& h = host();
  trace::TraceCollector* tr = trace::active(h.tracer());
  // The ambient parent is single-shot; take it once and re-arm it for
  // every attempt so retried calls all parent to the same span.
  const trace::TraceContext parent = tr != nullptr ? tr->take_ambient() : trace::TraceContext{};
  const int max_attempts = retry_.max_retries + 1;
  const bool idempotent = retry_.idempotent(key);
  const sim::Time t_first = h.sched().now();
  // Attempts at this index are sent WITHOUT the retry flag; bumped past
  // the current attempt by a cold-start session restart (below), whose
  // resend must re-open the session as a fresh call.
  int fresh_attempt = 0;

  for (int attempt = 0;; ++attempt) {
    const sim::Time t0 = h.sched().now();
    bool failed = false;
    bool timed_out = false;
    bool busy = false;
    bool expired_cold = false;
    std::string err;
    try {
      trace::activate(tr, parent);
      co_await call_attempt(addr, key, param, response, call_id, attempt != fresh_attempt);
    } catch (const ServerBusyException& e) {
      failed = true;
      busy = true;
      err = e.what();
    } catch (const RpcTimeoutError& e) {
      failed = true;
      timed_out = true;
      err = e.what();
    } catch (const SessionExpiredException& e) {
      // The server lost (or superseded) the dedup state for this logical
      // call: another attempt could duplicate a completed execution, so
      // the failure is terminal — never retried. One case is provably
      // safe to resend: if no call has EVER completed on this session at
      // this address, and the bounce arrived within one lease of this
      // call's first attempt, then no earlier attempt can have executed —
      // an executed attempt would have opened the session (fresh calls
      // open; retried ones only execute through a live one) and the lease
      // hasn't elapsed since, so the server would have found it alive
      // instead of bouncing. That is the cold-start window on a lossy
      // datagram path: the session's first frame was lost and the flagged
      // retransmit met a server that had never seen the session. The
      // resend goes out fresh and (re-)opens the session with this call
      // id as the fence.
      const bool cold_start = session_.enabled && !session_confirmed_.contains(addr) &&
                              session_.lease > 0 &&
                              h.sched().now() - t_first < session_.lease;
      if (!cold_start || attempt + 1 >= max_attempts) throw;
      failed = true;
      expired_cold = true;
      err = e.what();
    } catch (const RpcTransportError& e) {
      // RemoteException is not caught: the server executed the handler,
      // so retrying cannot help and would be wrong for mutations.
      failed = true;
      err = e.what();
    }
    if (!failed) {
      if (session_.enabled) session_confirmed_.insert(addr);
      co_return;
    }

    if (busy) {
      ++stats_.busy_rejections;
    } else if (timed_out) {
      ++stats_.timeouts;
    } else if (expired_cold) {
      ++stats_.session_cold_restarts;
    } else {
      ++stats_.transport_errors;
    }
    if (tr != nullptr) {
      tr->add_complete(std::string(busy           ? "overload.busy:"
                                   : timed_out    ? "fault.timeout:"
                                   : expired_cold ? "session.cold_restart:"
                                                  : "fault.transport:") +
                           key.method,
                       trace::Kind::kClient,
                       busy           ? trace::Category::kOverload
                       : expired_cold ? trace::Category::kSession
                                      : trace::Category::kFault,
                       parent, h.id(), t0, h.sched().now());
    }
    // Shed calls were never executed, so "busy" is retryable regardless of
    // idempotency. Timeouts on a non-idempotent method are retryable when
    // the server dedups retries (retry_non_idempotent_on_timeout): the
    // next attempt rides the same connection, so the retry cache sees the
    // same owner key either way. Transport errors (a reconnect replaying
    // its in-flight calls) additionally require the session layer —
    // without it the cache is keyed by the dense conn id, which the
    // reconnect loses, so a completed-but-unanswered call would silently
    // re-execute on the new connection.
    const bool retryable =
        expired_cold || busy || idempotent ||
        (retry_.retry_non_idempotent_on_timeout && (timed_out || session_.enabled));
    if (!retryable || attempt + 1 >= max_attempts) {
      const std::string what =
          key.to_string() + ": " + err + " (after " + std::to_string(attempt + 1) +
          (attempt == 0 ? " attempt)" : " attempts)");
      if (busy) throw ServerBusyException(what);
      if (timed_out) throw RpcTimeoutError(what);
      throw RpcTransportError(what);
    }

    ++stats_.retries;
    if (expired_cold) fresh_attempt = attempt + 1;
    // A retry after a transport failure is a replay of an in-flight call
    // through the reconnect recovery machine (the next attempt's
    // get_connection re-bootstraps the torn-down peer). Gated on the
    // session knob like note_reconnect, so sessionless seeded reports
    // grow no reconnect rows and stay byte-identical.
    if (!busy && !timed_out && !expired_cold && session_.enabled) ++stats_.calls_replayed;
    const sim::Dur wait = retry_.backoff(attempt, h.rng());
    stats_.backoff_us.add(sim::to_us(wait));
    const sim::Time b0 = h.sched().now();
    co_await sim::delay(h.sched(), wait);
    if (tr != nullptr) {
      tr->add_complete("retry.backoff:" + key.method, trace::Kind::kInternal,
                       trace::Category::kRetry, parent, h.id(), b0, h.sched().now());
    }
  }
}

void RpcClient::note_reconnect(ReconnectCause cause) {
  if (!session_.enabled) return;
  switch (cause) {
    case ReconnectCause::kPeerClosed: ++stats_.reconnects_peer_closed; break;
    case ReconnectCause::kQpError: ++stats_.reconnects_qp_error; break;
    case ReconnectCause::kIdleEvicted: ++stats_.reconnects_idle_evicted; break;
    case ReconnectCause::kFaultInjected: ++stats_.reconnects_fault_injected; break;
  }
  cluster::Host& h = host();
  if (trace::TraceCollector* tr = trace::active(h.tracer()); tr != nullptr) {
    const sim::Time now = h.sched().now();
    tr->add_complete(std::string("reconnect.") + reconnect_cause_name(cause),
                     trace::Kind::kClient, trace::Category::kSession, {}, h.id(), now, now);
  }
}

MethodProfile& RpcClient::note_sent(const MethodKey& key, std::uint64_t mem_adjustments,
                                   std::size_t msg_len, sim::Time t_start,
                                   sim::Time t_serialized, sim::Time t_sent) {
  MethodProfile& prof = stats_.method(key);
  prof.mem_adjustments.add(static_cast<double>(mem_adjustments));
  prof.serialize_us.add(sim::to_us(t_serialized - t_start));
  prof.send_us.add(sim::to_us(t_sent - t_serialized));
  prof.msg_bytes.add(static_cast<double>(msg_len));
  stats_.record_size(prof, static_cast<std::uint32_t>(msg_len));
  ++stats_.calls_sent;
  return prof;
}

RpcTimeoutError RpcClient::attempt_timeout() const {
  return RpcTimeoutError("call timed out after " + std::to_string(sim::to_ms(retry_.call_timeout)) +
                         " ms");
}

void RpcClient::note_batch_flush(FlushReason why) {
  switch (why) {
    case FlushReason::kFull: ++stats_.batch_flush_full; break;
    case FlushReason::kLinger: ++stats_.batch_flush_linger; break;
    case FlushReason::kImmediate: ++stats_.batch_flush_immediate; break;
  }
}

}  // namespace rpcoib::rpc

"""Test-only reference: the event-scan queue kernel the simulator used
before the heap kernels, kept verbatim so the new kernels can be checked
against it bit for bit.

It scans every server on every event, so it is slow (about 0.3 CPU s per
100,000 exams in plain Python); tests call it on short streams or a few
long ones.
"""
import numpy as np


def _serve_queue_impl(arrivals, service, flagged, n_servers, use_priority, preempt):
    # Single pass over arrival and completion events in time order.
    # Tie rule: completions before arrivals at equal times, lowest exam id
    # first among simultaneous completions, lowest-index free server takes
    # the next exam. A freed server immediately pulls from the queue, so no
    # server idles while anyone waits.
    # With preempt, a flagged arrival that finds no free server takes the
    # server of the in-service unflagged exam that arrived last (highest id);
    # that exam goes to the head of the unflagged queue and later resumes
    # with its remaining read time. Returns each exam's first start and its
    # total time spent suspended (0.0 unless it was interrupted).
    n = arrivals.shape[0]
    start = np.empty(n, np.float64)
    suspended = np.zeros(n, np.float64)
    remaining = service.copy()
    paused_at = np.full(n, -1.0)
    busy = np.zeros(n_servers, np.bool_)
    busy_until = np.zeros(n_servers, np.float64)
    busy_exam = np.zeros(n_servers, np.int64)
    queue_flag = np.empty(n, np.int64)
    # Room on both sides: preempted exams are pushed back at the head.
    queue_plain = np.empty(2 * n, np.int64)
    qf_head = qf_tail = 0
    qp_head = qp_tail = n
    n_busy = 0
    i = 0
    big = np.int64(1 << 62)
    while i < n or n_busy > 0:
        t_done = np.inf
        s_done = -1
        id_done = big
        for s in range(n_servers):
            if busy[s]:
                t = busy_until[s]
                if t < t_done or (t == t_done and busy_exam[s] < id_done):
                    t_done = t
                    s_done = s
                    id_done = busy_exam[s]
        t_arr = arrivals[i] if i < n else np.inf
        if s_done >= 0 and t_done <= t_arr:
            busy[s_done] = False
            n_busy -= 1
            nxt = -1
            if use_priority and qf_tail > qf_head:
                nxt = queue_flag[qf_head]
                qf_head += 1
            elif qp_tail > qp_head:
                nxt = queue_plain[qp_head]
                qp_head += 1
            if nxt >= 0:
                if paused_at[nxt] >= 0.0:
                    suspended[nxt] += t_done - paused_at[nxt]
                else:
                    start[nxt] = t_done
                busy[s_done] = True
                busy_until[s_done] = t_done + remaining[nxt]
                busy_exam[s_done] = nxt
                n_busy += 1
        else:
            victim = -1
            if preempt and flagged[i] and n_busy == n_servers:
                for s in range(n_servers):
                    e = busy_exam[s]
                    if not flagged[e] and (victim < 0 or e > busy_exam[victim]):
                        victim = s
            if n_busy < n_servers:
                for s in range(n_servers):
                    if not busy[s]:
                        start[i] = t_arr
                        busy[s] = True
                        busy_until[s] = t_arr + service[i]
                        busy_exam[s] = i
                        n_busy += 1
                        break
            elif victim >= 0:
                e = busy_exam[victim]
                remaining[e] = busy_until[victim] - t_arr
                paused_at[e] = t_arr
                qp_head -= 1
                queue_plain[qp_head] = e
                start[i] = t_arr
                busy_until[victim] = t_arr + service[i]
                busy_exam[victim] = i
            elif use_priority and flagged[i]:
                queue_flag[qf_tail] = i
                qf_tail += 1
            else:
                queue_plain[qp_tail] = i
                qp_tail += 1
            i += 1
    return start, suspended

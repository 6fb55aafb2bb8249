# End-to-end smoke test for the persist & serve pipeline, run by ctest (and
# by the CI serve-smoke step) as
#   `cmake -DNUCLEUS_CLI=... -DWORK_DIR=... -P serve_smoke.cmake`.
#
# Pipeline exercised: generate a graph -> decompose --out-snapshot ->
# snapshot-backed `query` answers DIFFED against fresh-decompose answers ->
# `serve` a scripted session at 1 and 2 threads with byte-identical output
# -> corrupt the snapshot and confirm the loader rejects it cleanly
# -> a loopback-TCP two-tenant session (serve --listen | connect) diffed
# against its stdin/stdout replay -> a --trace-log session byte-compared
# against its untraced transcript with the trace records schema-checked.

if(NOT DEFINED NUCLEUS_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "serve_smoke.cmake requires -DNUCLEUS_CLI=<binary> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(EDGES ${WORK_DIR}/serve_edges.txt)
set(SNAP ${WORK_DIR}/serve.nucsnap)

function(run_cli expect_code out_var)
  execute_process(
    COMMAND ${NUCLEUS_CLI} ${ARGN}
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE code)
  if(NOT code EQUAL ${expect_code})
    message(FATAL_ERROR "nucleus_cli ${ARGN}: exit ${code}, expected ${expect_code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_match text pattern context)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "${context}: output did not match '${pattern}'\noutput:\n${text}")
  endif()
endfunction()

# 1. Generate a planted-partition graph and decompose it into a snapshot.
run_cli(0 gen_out generate --type planted --out ${EDGES} --n 120 --param 6 --seed 11)
run_cli(0 dec_out decompose --input ${EDGES} --family truss --out-snapshot ${SNAP})
expect_match("${dec_out}" "wrote .*serve.nucsnap .* with index tables" "decompose --out-snapshot")
if(NOT EXISTS ${SNAP})
  message(FATAL_ERROR "decompose did not write ${SNAP}")
endif()

# 2. Snapshot-backed query answers must equal fresh-decompose answers.
run_cli(0 q1 query --snapshot ${SNAP} --u 0 --v 1 --out-json ${WORK_DIR}/snap_q.json)
run_cli(0 q2 query --input ${EDGES} --family truss --u 0 --v 1 --out-json ${WORK_DIR}/fresh_q.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/snap_q.json ${WORK_DIR}/fresh_q.json RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "snapshot-backed query answers differ from fresh-decompose answers")
endif()

run_cli(0 topq query --snapshot ${SNAP} --top 3)
expect_match("${topq}" "top 3 densest nuclei" "query --top")

# 3. Serve a batch session; output must be identical at 1 and 2 threads.
file(WRITE ${WORK_DIR}/queries.txt "# serve smoke session
lambda 0
nucleus 0 2
common 0 1
level 0 1
top 3
members 1
")
run_cli(0 s1 serve --snapshot ${SNAP} --queries ${WORK_DIR}/queries.txt --out ${WORK_DIR}/answers_t1.txt --threads 1)
run_cli(0 s2 serve --snapshot ${SNAP} --queries ${WORK_DIR}/queries.txt --out ${WORK_DIR}/answers_t2.txt --threads 2)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/answers_t1.txt ${WORK_DIR}/answers_t2.txt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "serve output differs between 1 and 2 threads")
endif()
file(READ ${WORK_DIR}/answers_t1.txt answers)
expect_match("${answers}" "\"query\": \"lambda\"" "serve answers")
expect_match("${answers}" "\"query\": \"top\"" "serve answers")

# 3b. Memory modes over one v2 file: held owned (heap: read and verified
# up front) and mapped (mmap: zero-copy, verified on first use), query
# answers and the whole serve transcript must be byte-identical.
run_cli(0 q_mm query --snapshot ${SNAP} --memory-mode mmap --u 0 --v 1 --out-json ${WORK_DIR}/mmap_q.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/snap_q.json ${WORK_DIR}/mmap_q.json RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "mmap query answers differ from heap answers")
endif()
run_cli(0 s_mm serve --snapshot ${SNAP} --memory-mode mmap --queries ${WORK_DIR}/queries.txt --out ${WORK_DIR}/answers_mmap.txt --threads 2)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/answers_t1.txt ${WORK_DIR}/answers_mmap.txt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "mmap serve transcript differs from the heap transcript")
endif()

# Upgrade leg: a v1 snapshot (a checked-in fixture — nothing writes v1 any
# more) upgrades to v2, and the upgraded file served mapped answers exactly
# like the v1 file itself (upgraded in memory at open).
set(V1_SNAP ${CMAKE_CURRENT_LIST_DIR}/../data/v1/figure2_truss_index.v1.nucsnap)
set(SNAP2 ${WORK_DIR}/upgraded.nucsnap)
run_cli(0 up_out snapshot-upgrade --snapshot ${V1_SNAP} --out ${SNAP2})
expect_match("${up_out}" "upgraded .* \\(v1\\) -> .* \\(v2\\)" "snapshot-upgrade")
run_cli(0 s_v1 serve --snapshot ${V1_SNAP} --queries ${WORK_DIR}/queries.txt --out ${WORK_DIR}/answers_v1.txt)
run_cli(0 s_up serve --snapshot ${SNAP2} --memory-mode mmap --queries ${WORK_DIR}/queries.txt --out ${WORK_DIR}/answers_up.txt --threads 2)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/answers_v1.txt ${WORK_DIR}/answers_up.txt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "upgraded v1 snapshot answers differ from the v1 file")
endif()

# A v2-magic file whose header bytes are garbage is rejected cleanly, mmap
# mode included — the ASCII filler lands in the version field, so the
# version probe fires. (Byte-flip corruption inside real sections needs
# binary patching CMake script mode cannot do; that sweep lives in
# tests/snapshot_v2_test.cc.)
string(REPEAT "not a real v2 header or directory " 16 v2_garbage)
file(WRITE ${WORK_DIR}/bad_v2.nucsnap "NUCSNAP2${v2_garbage}")
execute_process(
  COMMAND ${NUCLEUS_CLI} query --snapshot ${WORK_DIR}/bad_v2.nucsnap --memory-mode mmap --u 0
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "corrupt v2 snapshot: exit ${code}, expected 1\n${stderr}")
endif()
if(NOT stderr MATCHES "unsupported snapshot version")
  message(FATAL_ERROR "corrupt v2 snapshot: unexpected error\n${stderr}")
endif()

# 4. Corrupt snapshots are rejected with a clean error, not a crash:
# (a) wrong magic, (b) a file that ends inside the header.
file(WRITE ${WORK_DIR}/bad_magic.nucsnap "NOTASNAP and then sixty more bytes of padding to clear the header..")
execute_process(
  COMMAND ${NUCLEUS_CLI} serve --snapshot ${WORK_DIR}/bad_magic.nucsnap --queries ${WORK_DIR}/queries.txt
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "bad-magic snapshot: exit ${code}, expected 1\n${stderr}")
endif()
if(NOT stderr MATCHES "bad magic")
  message(FATAL_ERROR "bad-magic snapshot: unexpected error\n${stderr}")
endif()

file(WRITE ${WORK_DIR}/short.nucsnap "NUCSNAP1")
execute_process(
  COMMAND ${NUCLEUS_CLI} query --snapshot ${WORK_DIR}/short.nucsnap --u 0
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "truncated snapshot: exit ${code}, expected 1\n${stderr}")
endif()
if(NOT stderr MATCHES "truncated")
  message(FATAL_ERROR "truncated snapshot: unexpected error\n${stderr}")
endif()

# 5. Live updates: patch a default-built (FND) (1,2) snapshot with an edit
# batch and verify the patched snapshot AND the resolved delta chain answer
# byte-identically to a fresh default decompose of the edited graph (node
# numbering is canonical, so the building algorithm does not matter), and
# that the patched file is byte-identical to that fresh decompose's
# snapshot (the base's algorithm field is carried through the update).
set(CORE_SNAP ${WORK_DIR}/core.nucsnap)
run_cli(0 dec_core decompose --input ${EDGES} --family core --out-snapshot ${CORE_SNAP})

# Edits: remove the first two edges of the edge list (never the max vertex
# id, so the vertex count is unchanged), mirrored textually for the fresh
# decompose.
file(STRINGS ${EDGES} edge_lines)
list(GET edge_lines 0 removed_a)
list(GET edge_lines 1 removed_b)
string(REPLACE " " ";" removed_a_parts "${removed_a}")
string(REPLACE " " ";" removed_b_parts "${removed_b}")
file(WRITE ${WORK_DIR}/edits.txt "# smoke edit batch\n- ${removed_a}\n- ${removed_b}\n")
list(REMOVE_AT edge_lines 0 1)
string(REPLACE ";" "\n" edited_text "${edge_lines}")
file(WRITE ${WORK_DIR}/edited.txt "${edited_text}\n")

set(PATCHED ${WORK_DIR}/patched.nucsnap)
set(DELTA ${WORK_DIR}/d1.nucdelta)
run_cli(0 upd_out update --snapshot ${CORE_SNAP} --input ${EDGES} --edits ${WORK_DIR}/edits.txt --out-snapshot ${PATCHED} --out-delta ${DELTA})
expect_match("${upd_out}" "applied 2 edit" "update command")
if(NOT EXISTS ${PATCHED} OR NOT EXISTS ${DELTA})
  message(FATAL_ERROR "update did not write ${PATCHED} / ${DELTA}")
endif()

run_cli(0 q_fresh query --input ${WORK_DIR}/edited.txt --family core --u 0 --v 1 --top 3 --out-json ${WORK_DIR}/fresh_upd.json)
run_cli(0 q_patch query --snapshot ${PATCHED} --u 0 --v 1 --top 3 --out-json ${WORK_DIR}/patched_upd.json)
run_cli(0 q_chain query --snapshot ${CORE_SNAP} --deltas ${DELTA} --input ${WORK_DIR}/edited.txt --u 0 --v 1 --top 3 --out-json ${WORK_DIR}/chain_upd.json)
foreach(candidate patched_upd chain_upd)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/fresh_upd.json ${WORK_DIR}/${candidate}.json RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${candidate} answers differ from a fresh decompose of the edited graph")
  endif()
endforeach()
run_cli(0 dec_fresh decompose --input ${WORK_DIR}/edited.txt --family core --out-snapshot ${WORK_DIR}/fresh.nucsnap)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/fresh.nucsnap ${PATCHED} RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "update --out-snapshot differs from a fresh decompose --out-snapshot of the edited graph")
endif()

# 6. The serve `update` verb: a live session applies the same edits and its
# post-update answers must equal serving the patched snapshot; output is
# byte-identical at 1 and 2 threads.
list(GET removed_a_parts 0 ra_u)
list(GET removed_a_parts 1 ra_v)
list(GET removed_b_parts 0 rb_u)
list(GET removed_b_parts 1 rb_v)
file(WRITE ${WORK_DIR}/live_session.txt "lambda 0
update ${ra_u} ${ra_v} -
update ${rb_u} ${rb_v} -
lambda 0
common 0 1
top 3
")
file(WRITE ${WORK_DIR}/post_session.txt "lambda 0
common 0 1
top 3
")
run_cli(0 live1 serve --snapshot ${CORE_SNAP} --input ${EDGES} --queries ${WORK_DIR}/live_session.txt --out ${WORK_DIR}/live_t1.txt --threads 1)
run_cli(0 live2 serve --snapshot ${CORE_SNAP} --input ${EDGES} --queries ${WORK_DIR}/live_session.txt --out ${WORK_DIR}/live_t2.txt --threads 2)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/live_t1.txt ${WORK_DIR}/live_t2.txt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "live serve output differs between 1 and 2 threads")
endif()
run_cli(0 post serve --snapshot ${PATCHED} --queries ${WORK_DIR}/post_session.txt --out ${WORK_DIR}/post_answers.txt)
file(STRINGS ${WORK_DIR}/live_t1.txt live_lines)
file(STRINGS ${WORK_DIR}/post_answers.txt post_lines)
list(GET live_lines 3 live_post_lambda)
list(GET live_lines 4 live_post_common)
list(GET live_lines 5 live_post_top)
list(GET post_lines 0 patched_lambda)
list(GET post_lines 1 patched_common)
list(GET post_lines 2 patched_top)
if(NOT live_post_lambda STREQUAL patched_lambda OR
   NOT live_post_common STREQUAL patched_common OR
   NOT live_post_top STREQUAL patched_top)
  message(FATAL_ERROR "post-update live answers differ from the patched snapshot:\n${live_post_lambda}\nvs\n${patched_lambda}")
endif()
file(READ ${WORK_DIR}/live_t1.txt live_answers)
expect_match("${live_answers}" "\"query\": \"update\"" "live session")
expect_match("${live_answers}" "\"applied\": true" "live session")

# 7. Multi-tenant registry serving: a two-tenant manifest (one live core
# tenant, one read-only truss tenant), a routed session with admin verbs —
# attach a third tenant mid-session, query it, detach it — byte-identical
# at 1 and 2 threads, with each tenant's slice byte-identical to its
# dedicated single-tenant replay.
file(WRITE ${WORK_DIR}/registry.txt "# serve smoke manifest
tenant core snapshot=core.nucsnap graph=serve_edges.txt
tenant truss snapshot=serve.nucsnap
")
file(WRITE ${WORK_DIR}/routed_session.txt "tenants
core:lambda 0
truss:lambda 0
core:update ${ra_u} ${ra_v} -
core:lambda 0
truss:top 3
attach extra snapshot=${SNAP}
extra:common 0 1
detach extra
extra:lambda 0
core:common 0 1
")
run_cli(0 mt1 serve --registry ${WORK_DIR}/registry.txt --queries ${WORK_DIR}/routed_session.txt --out ${WORK_DIR}/routed_t1.txt --threads 1)
run_cli(0 mt2 serve --registry ${WORK_DIR}/registry.txt --queries ${WORK_DIR}/routed_session.txt --out ${WORK_DIR}/routed_t2.txt --threads 2)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/routed_t1.txt ${WORK_DIR}/routed_t2.txt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "routed serve output differs between 1 and 2 threads")
endif()
file(READ ${WORK_DIR}/routed_t1.txt routed_answers)
expect_match("${routed_answers}" "\"query\": \"tenants\", \"count\": 2" "routed session")
expect_match("${routed_answers}" "\"query\": \"attach\", \"tenant\": \"extra\", \"ok\": true" "routed session")
expect_match("${routed_answers}" "\"query\": \"detach\", \"tenant\": \"extra\", \"ok\": true" "routed session")
expect_match("${routed_answers}" "\"query\": \"update\".*\"applied\": true" "routed session")
expect_match("${routed_answers}" "unknown tenant 'extra'" "post-detach query")

# The core tenant's slice (lines 2, 4, 5, 11 of the session) must equal a
# dedicated single-tenant live session replaying the same lines.
file(WRITE ${WORK_DIR}/core_replay.txt "lambda 0
update ${ra_u} ${ra_v} -
lambda 0
common 0 1
")
run_cli(0 core_alone serve --snapshot ${CORE_SNAP} --input ${EDGES} --queries ${WORK_DIR}/core_replay.txt --out ${WORK_DIR}/core_alone.txt --threads 1)
file(STRINGS ${WORK_DIR}/routed_t1.txt routed_lines)
file(STRINGS ${WORK_DIR}/core_alone.txt alone_lines)
foreach(pair "1;0" "3;1" "4;2" "10;3")
  list(GET pair 0 routed_idx)
  list(GET pair 1 alone_idx)
  list(GET routed_lines ${routed_idx} routed_line)
  list(GET alone_lines ${alone_idx} alone_line)
  if(NOT routed_line STREQUAL alone_line)
    message(FATAL_ERROR "core tenant slice diverges from its dedicated replay:\n${routed_line}\nvs\n${alone_line}")
  endif()
endforeach()

# A manifest naming a corrupt tenant is rejected at startup with the
# tenant's name attached, and an in-session attach of the same corrupt
# file is a structured per-line error that leaves the session serving.
file(WRITE ${WORK_DIR}/bad_registry.txt "tenant good snapshot=serve.nucsnap
tenant broken snapshot=bad_magic.nucsnap
")
execute_process(
  COMMAND ${NUCLEUS_CLI} serve --registry ${WORK_DIR}/bad_registry.txt --queries ${WORK_DIR}/routed_session.txt
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "corrupt-tenant manifest: exit ${code}, expected 1\n${stderr}")
endif()
if(NOT stderr MATCHES "tenant 'broken'" OR NOT stderr MATCHES "bad magic")
  message(FATAL_ERROR "corrupt-tenant manifest: unexpected error\n${stderr}")
endif()

file(WRITE ${WORK_DIR}/corrupt_attach.txt "truss:lambda 0
attach broken snapshot=${WORK_DIR}/bad_magic.nucsnap
truss:lambda 0
")
run_cli(0 ca serve --registry ${WORK_DIR}/registry.txt --queries ${WORK_DIR}/corrupt_attach.txt --out ${WORK_DIR}/corrupt_attach_out.txt)
file(STRINGS ${WORK_DIR}/corrupt_attach_out.txt ca_lines)
list(GET ca_lines 0 ca_first)
list(GET ca_lines 1 ca_error)
list(GET ca_lines 2 ca_last)
if(NOT ca_error MATCHES "tenant 'broken'" OR NOT ca_error MATCHES "\"line\": 2")
  message(FATAL_ERROR "in-session corrupt attach: expected a per-line tenant error, got\n${ca_error}")
endif()
if(NOT ca_first STREQUAL ca_last)
  message(FATAL_ERROR "session stopped serving after a failed attach:\n${ca_first}\nvs\n${ca_last}")
endif()

# 8. TCP serving tier: the same two-tenant manifest served over loopback.
# `serve --listen 0` announces its ephemeral port on stdout; that stdout is
# piped straight into `connect --port stdin`, which parses the
# announcement, runs the session and exits when the server half-closes
# after the `shutdown` verb drains it. The TCP transcript must be
# byte-identical to a stdin/stdout replay of the same session.
file(WRITE ${WORK_DIR}/tcp_session.txt "tenants
core:lambda 0
truss:lambda 0
core:update ${ra_u} ${ra_v} -
core:lambda 0
truss:top 3
core:common 0 1
shutdown
")
execute_process(
  COMMAND ${NUCLEUS_CLI} serve --registry ${WORK_DIR}/registry.txt --listen 0
  COMMAND ${NUCLEUS_CLI} connect --port stdin --queries ${WORK_DIR}/tcp_session.txt --out ${WORK_DIR}/tcp_out.txt
  OUTPUT_VARIABLE tcp_stdout
  ERROR_VARIABLE tcp_stderr
  RESULTS_VARIABLE tcp_codes)
foreach(code IN LISTS tcp_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "TCP serve pipeline: exit codes ${tcp_codes}\n${tcp_stderr}")
  endif()
endforeach()
run_cli(0 tcp_replay serve --registry ${WORK_DIR}/registry.txt --queries ${WORK_DIR}/tcp_session.txt --out ${WORK_DIR}/tcp_replay.txt)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/tcp_out.txt ${WORK_DIR}/tcp_replay.txt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "TCP transcript differs from the stdio replay of the same session")
endif()
file(READ ${WORK_DIR}/tcp_out.txt tcp_answers)
expect_match("${tcp_answers}" "\"query\": \"shutdown\", \"ok\": true" "TCP session")
expect_match("${tcp_stderr}" "drained" "TCP server drain summary")

# 9. Request tracing is a pure side channel: the live session from step 6
# replayed with --trace-log (2 threads) must stay byte-identical to its
# untraced transcript, and the trace file must be JSON-lines carrying all
# four span phases for every non-skipped line of the session.
set(TRACE ${WORK_DIR}/live_trace.jsonl)
run_cli(0 traced serve --snapshot ${CORE_SNAP} --input ${EDGES} --queries ${WORK_DIR}/live_session.txt --out ${WORK_DIR}/live_traced.txt --threads 2 --trace-log ${TRACE})
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${WORK_DIR}/live_t1.txt ${WORK_DIR}/live_traced.txt RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "traced serve transcript differs from the untraced replay")
endif()
if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR "serve --trace-log did not write ${TRACE}")
endif()
file(STRINGS ${TRACE} trace_lines)
list(LENGTH trace_lines trace_count)
if(NOT trace_count EQUAL 6)
  message(FATAL_ERROR "expected 6 trace spans (one per session line), got ${trace_count}")
endif()
foreach(trace_line IN LISTS trace_lines)
  if(NOT trace_line MATCHES "^\\{.*\\}$")
    message(FATAL_ERROR "trace record is not a JSON object:\n${trace_line}")
  endif()
  foreach(phase parse_us queue_us exec_us flush_us total_us)
    if(NOT trace_line MATCHES "\"${phase}\": [0-9]+")
      message(FATAL_ERROR "trace record is missing ${phase}:\n${trace_line}")
    endif()
  endforeach()
endforeach()

# A corrupt delta chain is rejected cleanly, not served.
file(WRITE ${WORK_DIR}/bad.nucdelta "NUCDELT1 and then garbage well past the header size to be safe........................................")
execute_process(
  COMMAND ${NUCLEUS_CLI} query --snapshot ${CORE_SNAP} --deltas ${WORK_DIR}/bad.nucdelta --input ${WORK_DIR}/edited.txt --u 0
  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE code)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "corrupt delta: exit ${code}, expected 1\n${stderr}")
endif()

message(STATUS "serve smoke test passed")

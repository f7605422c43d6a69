// Thread-safety annotation for process-shared mutable state.
//
// The unit of concurrency is the replay: replays may run concurrently,
// one ReplayEngine per thread, and everything a replay mutates (device,
// FTL, timelines, links, FS/UFS) is owned by its engine by construction,
// so it needs no annotation. What remains is state that outlives or spans
// replays — process-wide singletons, thread-local instrument slots, set-
// once CLI values — and every such global, static or thread_local must
// say how concurrent replays stay safe around it:
//
//   SIM_SHARD_SHARED("thread-local install slot; ... via A and B only")
//
// simlint (tools/simlint) checks the claims: SL009 rejects unannotated
// mutable state, SL012 rejects notes too short to say anything, SL015
// confines a note's `via A and B only` accessors, and the inventory it
// regenerates (`simlint --shard-report`) is diffed against the checked-
// in SHARD_REPORT.json, so new shared state is a reviewed decision.
//
// Zero runtime cost: under clang the macro expands to [[clang::annotate]]
// (visible to AST tooling); under GCC and everything else it expands to
// nothing, so codegen, layout, and replay bit-identity are unaffected.
// simlint's matcher engine keys on the macro text itself, so the checks
// do not depend on which compiler configured the tree. Keep notes free
// of parentheses and embedded quotes — the matcher parses them
// textually.
#pragma once

#if defined(__clang__)
#define SIM_SHARD_SHARED(note) [[clang::annotate("nvmooc::shard_shared=" note)]]
#else
#define SIM_SHARD_SHARED(note)
#endif

"""
Lifelong tree learning on probe-metered data
============================================

A stream of decision-tree tasks shares a hidden dictionary of K tree
fragments.  The protocol tries to learn each task through its current
representation; when that fails it pays for the full table once, learns
from scratch, and folds new fragments into the representation.  After K
scratches the stream is essentially free.
"""

from probelearn import (StreamSpec, TreeFamily, gen_tree_stream,
                        naive_lfd_seen_features, run_protocol, tree_vars)
from probelearn.trees import TeacherGain

# a 50-task stream over 16 features, composed from K=3 hidden fragments
spec = StreamSpec(n_features=16, k=3, d=3, s=7, m=50, mf_depth=2,
                  sample_size=10, seed=7).validate()
tasks, dictionary = gen_tree_stream(spec)

print("hidden dictionary fragments:")
for i, frag in enumerate(dictionary):
    print(f"  fragment {i}: depth {frag.depth()}, vars {sorted(tree_vars(frag))}")

# run the plain protocol: attempt-from-representation, scratch on failure
family = TreeFamily(d=spec.d, s=spec.s, gain="teacher", improver="tree")
run = run_protocol(family, tasks)

print(f"\nscratch learns: {run.scratch_count} (dictionary size K = {spec.k})")
print(f"final representation: {len(run.final_rep)} fragments "
      f"(cap K*d = {spec.k * spec.d})")

# the per-task trace: scratches cluster at the front, then LFD takes over
line = "".join("S" if o == "scratch" else "." for o in run.outcomes)
print(f"task outcomes: {line}")

# per-example probe envelope 2|F| + 2d, checked against the ledger
worst = max((run.per_example_max[i], i)
            for i, o in enumerate(run.outcomes) if o == "lfd")
print(f"worst LFD per-example probes: {worst[0]} "
      f"(envelope {run.envelopes[worst[1]]})")

# compare with a baseline that keeps no dictionary: it learns each task
# through every feature it has seen in an earlier target, and on failure
# reads the whole table and adds the new target's features to that set
fresh_tasks, _ = gen_tree_stream(spec)
seen = set()
naive_probes = 0
for task in fresh_tasks:
    result = naive_lfd_seen_features(task.ds, seen, TeacherGain(task.target),
                                     spec.d, spec.s)
    if not result.learned:
        task.ds.probe_all()
        seen.update(tree_vars(task.target))
    naive_probes += task.ds.ledger.total_probes
scratch_probes = sum(t.ds.n_examples * spec.n_features for t in tasks)

print(f"\ndictionary (plain protocol):   {run.total_probes} probes")
print(f"seen-features baseline:        {naive_probes} probes "
      f"({len(seen)} features seen)")
print(f"every task from scratch:       {scratch_probes} probes")

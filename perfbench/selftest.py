"""Show that each correctness check passes on genuine program output and
fails on a corrupted copy of it.

    python3 perfbench/selftest.py

Uses a small corpus (300 objects, narrow networks) so it runs in seconds.
Exits 0 when every check behaves, 1 otherwise.
"""

import sys

from run import prepare, scratch


def _first_step(dists):
    """First position whose hit is strictly nearer than the next one, so
    swapping the two is not a tie."""
    return next(j for j in range(len(dists) - 1) if dists[j] < dists[j + 1])


def main() -> int:
    prepare()
    import numpy as np

    from groupvec import data, train

    import checks
    import workloads

    cases = []  # (name, problems on genuine output, problems on corrupted output)
    with scratch("selftest-") as work:
        table, feats, model = data.synth_generate_full(data.SynthConfig(seed=0, n_objects=300))
        small = dict(batch=40, clusters=10, hidden_dim=32, student_dim=16, teacher_dim=32)

        # resumed loss-log line changed
        cfg = train.TrainConfig(steps=20, seed=0, **small)
        groups = data.partition_by_scale(table, cfg.groups)
        state = train.init_state(cfg, feats.shape[1])
        for _ in range(4):
            train.train_step(state, groups, model)
        train.save_checkpoint(work / "ck.bin", state)
        live = [train.train_step(state, groups, model) for _ in range(3)]
        resumed_state = train.load_checkpoint(work / "ck.bin")
        resumed = [train.train_step(resumed_state, groups, model) for _ in range(3)]
        edited = list(resumed)
        edited[1] = edited[1][:-1] + ("0" if edited[1][-1] != "0" else "1")
        cases.append(("resumed loss-log line changed",
                      checks.check_resume(live, resumed), checks.check_resume(live, edited)))

        # one wrong neighbour in a kNN row
        cfg = train.TrainConfig(steps=20, seed=0, refresh_period=1, **small)
        state = train.init_state(cfg, feats.shape[1])
        train.train_step(state, groups, model)
        teacher = state.teacher.params.copy()
        train.train_step(state, groups, model)
        wide = checks.teacher_wide(teacher, feats, cfg.trunk_layers)
        neighbors = dict(state.ntable.neighbors)
        oid = int(table.ids[0])
        same = table.ids[groups.assignment == groups.assignment[0]]
        far = same[np.argmax(checks.exact_dist(wide[same], wide[0]))]
        wrong = dict(neighbors)
        wrong[oid] = np.concatenate([[far], neighbors[oid][1:]])
        args = (wide, table.ids, groups.assignment, cfg.knn)
        cases.append(("one wrong neighbour in a kNN row",
                      checks.check_knn(neighbors, *args), checks.check_knn(wrong, *args)))

        # two hits swapped in a ranking; one report cell edited
        corpus, run = work / "data", work / "run"
        corpus.mkdir()
        run.mkdir()
        ini = work / "small.ini"
        ini.write_text("[synth]\nn_objects = 300\n[train]\n"
                       + "".join(f"{k} = {v}\n" for k, v in small.items()))
        rankings, report = run / "rankings.tsv", run / "report.tsv"
        for argv in (["synth", "--config", str(ini), "--seed", "0", "--out", str(corpus)],
                     ["train", "--config", str(ini), "--data", str(corpus), "--out", str(run),
                      "--steps", "2"],
                     ["embed", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(corpus),
                      "--out", str(run / "store.bin")],
                     ["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(corpus),
                      "--store", str(run / "store.bin"), "--rankings", str(rankings),
                      "--report", str(report), "--max-queries", "40"]):
            workloads.run_cli(argv)
        brute, store, ctable = workloads.eval_inputs(corpus, run / "checkpoint.bin",
                                                       run / "store.bin", 40)
        parsed = checks.parse_rankings(rankings)
        swapped = [(q, list(i), list(d)) for q, i, d in parsed]
        _, ids, dists = swapped[0]
        j = _first_step(dists)
        ids[j], ids[j + 1] = ids[j + 1], ids[j]
        dists[j], dists[j + 1] = dists[j + 1], dists[j]
        cases.append(("two hits swapped in a ranking",
                      checks.check_rankings(parsed, brute, store.object_ids),
                      checks.check_rankings(swapped, brute, store.object_ids)))

        expected = workloads.expected_report(brute, store, ctable)
        text = report.read_text(encoding="utf-8")
        lines = text.split("\n")
        row = next(n for n, line in enumerate(lines[1:], 1) if line.split("\t")[3])
        cells = lines[row].split("\t")
        cells[3] = f"{float(cells[3]) + 1.0:.2f}"
        lines[row] = "\t".join(cells)
        cases.append(("one report cell edited",
                      checks.check_report(text, expected),
                      checks.check_report("\n".join(lines), expected)))

    ok = True
    for name, genuine, corrupted in cases:
        good = not genuine and bool(corrupted)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: genuine output "
              f"{'passes' if not genuine else 'fails: ' + genuine[0][:160]}; corrupted output "
              f"{'fails: ' + corrupted[0][:160] if corrupted else 'passes'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

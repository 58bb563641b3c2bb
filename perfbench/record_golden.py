"""Record the golden outputs of every workload on the golden seed into
golden/seed42.json: sha256 digests of the CSVs and the JSON documents.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known to be right; the benchmark
fails any later commit whose outputs differ from what it records.
"""
import json
import shutil

import gate
from run import HERE, ROOT, Runner, load_cli, pin_blas_threads
from workloads import GOLDEN_SEED, WORKLOADS


def main():
    pin_blas_threads()
    cli = load_cli()
    golden = {}
    for workload in WORKLOADS.values():
        work = ROOT / ".perfbench" / "record"
        runner = Runner(cli, workload, work, {})
        try:
            runner.round(GOLDEN_SEED)
            if runner.failed:
                raise SystemExit(f"{workload.name}: {runner.problems}")
            golden[workload.name] = {
                cmd.command: {
                    name: gate.digest(out / name) if name.endswith(".csv")
                    else json.loads((out / name).read_text())
                    for name in gate.OUTPUTS[cmd.command]
                }
                for cmd in workload.commands
                for out in [runner.out_dir(cmd)]
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
    path = HERE / "golden" / f"seed{GOLDEN_SEED}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()

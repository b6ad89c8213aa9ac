"""dst-lab: one entry point wiring corpora, strategies, predictors and metrics.

Every subcommand is deterministic given its manifest and seeds: all randomness
flows from explicit seed values and outputs are written in canonical order
regardless of worker count. Set DST_LAB_LOG to control log verbosity.
"""

from __future__ import annotations

import errno
import gc
import json
import logging
import math
import os
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import click

from . import __version__, jsonio
from .assembly import (
    BUDGET_ROWS,
    DROP_PROB,
    INSERT_PROB,
    TIME_REFORMAT_PROB,
    TYPO_PROB,
    EmbeddingPipeline,
    context_length_report,
    make_predictor,
    read_turns,
    run_dialogue,
)
from .corpus import (
    SIZE_LIMIT,
    CorpusFormatError,
    Dialogue,
    SlotTaxonomy,
    Speaker,
    SynthConfig,
    default_corrupted_ids,
    filter_corrupted,
    id_list,
    load_corpus,
    parse_corpus,
    seed_error,
    synth_corpus,
    synthetic_taxonomy,
    write_corpus,
)
from .jsonio import JsonInputError, check, get, reject
from .metrics import (
    AlignmentError,
    UnclassifiedSlotError,
    evaluate,
    references_from_corpus,
    states_from_records,
)
from .neural.gradcheck import grad_check_suite
from .neural.pipeline import (
    CompressorConfig,
    build_compressor,
    build_connector,
    build_encoder_stub,
)
from .neural.probe import ProbeHyper, probe_runs
from .neural.train import TrainingDivergence
from .postprocess import DEFAULT_FUZZY_GROUPS, DEFAULT_FUZZY_THRESHOLD, MatchPolicy
from .reporting import (
    render_context_lengths,
    render_report,
    render_retention_table,
    write_files,
)
from .state_codec import (
    PredictionRecord,
    Strategy,
    read_predictions,
    write_predictions,
)
from .workers import share_out

log = logging.getLogger(__name__)

_STRATEGY_ALIASES = {
    "multimodal": Strategy.MULTIMODAL,
    "full": Strategy.FULL_SPOKEN,
    "full_spoken": Strategy.FULL_SPOKEN,
    "compressed": Strategy.COMPRESSED_SPOKEN,
    "compressed_spoken": Strategy.COMPRESSED_SPOKEN,
}
_FORMATS = ("synthetic_json", "spokenwoz_json")
_PREDICTORS = ("exact", "noisy", "truncated")


def _configure_logging() -> None:
    level = os.environ.get("DST_LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def _read_option_file(path, read, flag: str):
    """``read`` of the JSON document that ``flag`` names; a fault is a usage error."""
    try:
        return jsonio.read_document(path, read)
    except OSError as exc:
        raise click.BadParameter(f"{path}: {exc.strerror}", param_hint=flag) from exc
    except JsonInputError as exc:
        raise click.BadParameter(str(exc), param_hint=flag) from exc


def _check_out(out: str, *, directory: bool) -> None:
    """A usage error, raised before any work, for an ``--out`` that cannot be
    written: a file where the output directory goes, a directory where the
    output file goes, or a file as the nearest existing path above either.
    Nothing is created; missing directories are made when the output is written.
    A name the OS refuses to look up, such as one too long, is a usage error too,
    and so is a missing name longer than the nearest existing directory's
    file system allows, which the lookup does not reach."""
    try:
        os.stat(out)
    except (FileNotFoundError, NotADirectoryError):
        pass  # absent: made when the output is written, unless a file above it is found below
    except OSError as exc:
        raise click.BadParameter(f"{out}: {exc.strerror}", param_hint="--out") from exc
    path = Path(out)
    nearest = next(p for p in (path, *path.absolute().parents) if os.path.exists(p))  # the root always exists
    if nearest == path and path.is_dir() != directory:
        raise click.BadParameter(f"{out} is {'not ' if directory else ''}a directory", param_hint="--out")
    if nearest != path:
        if not nearest.is_dir():
            raise click.BadParameter(f"{nearest} is not a directory", param_hint="--out")
        name_max = os.pathconf(nearest, "PC_NAME_MAX")  # -1 when the file system sets no limit
        if any(0 < name_max < len(os.fsencode(name)) for name in path.absolute().relative_to(nearest).parts):
            raise click.BadParameter(f"{out}: {os.strerror(errno.ENAMETOOLONG)}", param_hint="--out")


def _policy(obj: object) -> MatchPolicy:
    unknown = set(check(obj, dict)) - {f.name for f in fields(MatchPolicy)}
    if unknown:
        raise JsonInputError(f"unknown policy keys: {sorted(unknown)}")
    threshold = get(obj, "fuzzy_threshold", float, default=DEFAULT_FUZZY_THRESHOLD)
    if not 0.0 <= threshold <= 1.0:  # also true for NaN
        reject(("fuzzy_threshold",), "must be in [0, 1]", threshold)
    groups = get(obj, "fuzzy_groups", list[str], default=sorted(DEFAULT_FUZZY_GROUPS))
    for i, group in enumerate(groups):
        if group not in SlotTaxonomy.GROUPS:
            reject(("fuzzy_groups", i), f"must be one of {list(SlotTaxonomy.GROUPS)}", group)
    return MatchPolicy(float(threshold), frozenset(groups), get(obj, "time_canonicalization", bool, default=True))


def load_policy(name: str) -> MatchPolicy:
    """Named policy ("standard", "exact") or a JSON file path."""
    if name == "standard":
        return MatchPolicy()
    if name == "exact":
        return MatchPolicy.exact()
    if not os.path.exists(name):
        raise click.BadParameter(
            f"policy must be 'standard', 'exact', or a JSON file; {name!r} not found", param_hint="--policy"
        )
    return _read_option_file(name, _policy, "--policy")


def _parse_exclude_ids(value: str | None) -> list[str]:
    if not value:
        return default_corrupted_ids()
    # os.path.exists reads a name the OS refuses, such as a long id list, as absent; Path.exists raises
    if os.path.exists(value):
        return _read_option_file(value, id_list, "--exclude-ids")
    return [part.strip() for part in value.split(",") if part.strip()]


@dataclass
class RunManifest:
    """Archivable description of one prediction run."""

    corpus: str
    strategy: str
    format: str = "synthetic_json"
    predictor: str = "exact"
    seed: int = 0
    n_queries: int = 8
    d_model: int = 16
    n_heads: int = 2
    n_layers: int = 1
    stride: int = 1
    compress_current: bool = False
    workers: int = 1
    exclude_ids: list[str] = field(default_factory=list)
    out: str = "runs/out"
    drop_prob: float = DROP_PROB
    typo_prob: float = TYPO_PROB
    insert_prob: float = INSERT_PROB
    time_reformat_prob: float = TIME_REFORMAT_PROB
    budget_rows: int = BUDGET_ROWS
    agent_asr: str | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "RunManifest":
        return _read_option_file(path, cls._from_json, "--manifest")

    @classmethod
    def _from_json(cls, obj: object) -> "RunManifest":
        unknown = set(check(obj, dict)) - set(cls.__dataclass_fields__)
        if unknown:
            raise JsonInputError(f"unknown manifest fields: {sorted(unknown)}")
        kinds = typing.get_type_hints(cls)  # each field's annotation is the JSON type it accepts
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        return cls(**{name: get(obj, name, kinds[name]) for name in [*required, *obj]})

    def check_ranges(self) -> None:
        """Raise click.BadParameter naming the first field outside its range,
        whether its value came from the manifest or from a flag."""
        _require_size(self.workers, "--workers")
        _require_size(self.n_queries, "--n-queries")
        if error := seed_error(self.seed):
            raise click.BadParameter(error, param_hint="field 'seed'")
        for name in ("d_model", "n_heads", "n_layers", "stride", "budget_rows"):
            _require_size(getattr(self, name), f"field {name!r}")
        if self.d_model % self.n_heads:
            raise click.BadParameter(
                f"must divide d_model={self.d_model}, got {self.n_heads}", param_hint="field 'n_heads'"
            )
        for name in ("drop_prob", "typo_prob", "insert_prob", "time_reformat_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # also false for NaN
                raise click.BadParameter(f"must be in [0, 1], got {value}", param_hint=f"field {name!r}")
        for name, allowed in (("predictor", _PREDICTORS), ("format", _FORMATS)):
            value = getattr(self, name)
            if value not in allowed:
                raise click.BadParameter(f"must be one of {list(allowed)}, got {value!r}", param_hint=f"field {name!r}")
        if self.strategy.lower() not in _STRATEGY_ALIASES:
            raise click.BadParameter(
                f"must be one of {sorted(_STRATEGY_ALIASES)}, got {self.strategy!r}", param_hint="field 'strategy'"
            )
        for name in ("corpus", "agent_asr"):
            value = getattr(self, name)
            if value is not None and not os.path.exists(value):
                raise click.BadParameter(f"path {value!r} does not exist", param_hint=f"field {name!r}")
        _check_out(self.out, directory=True)


def _require_size(value: int, hint: str) -> None:
    if value < 1:
        raise click.BadParameter(f"must be >= 1, got {value}", param_hint=hint)
    if value > SIZE_LIMIT:
        raise click.BadParameter(f"must be <= {SIZE_LIMIT}, got {value}", param_hint=hint)


def _require_distinct(values, flag: str) -> None:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise click.BadParameter(f"{value} is given more than once", param_hint=flag)


def _validated(config):
    """``config`` after its ``validate()``; a ValueError becomes a usage error."""
    try:
        config.validate()
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    return config


def _feature_dim(dialogues: list[Dialogue]) -> int:
    for dlg in dialogues:
        for turn in dlg.turns:
            if turn.features is not None:
                return int(turn.features.shape[1])
    raise click.ClickException("no turn that a context reads has a feature sidecar; generate sidecars first")


def _build_embedder(manifest: RunManifest, d_feat: int) -> tuple[EmbeddingPipeline, CompressorConfig]:
    config = CompressorConfig(
        d_model=manifest.d_model,
        n_heads=manifest.n_heads,
        n_layers=manifest.n_layers,
        n_queries=manifest.n_queries,
        seed=manifest.seed,
    )
    embedder = EmbeddingPipeline(
        connector=build_connector(d_feat, config),
        encoder_stub=build_encoder_stub(d_feat, config),
        stride=manifest.stride,
    )
    return embedder, config


def _agent_text(obj: object) -> tuple[str, int, str]:
    return get(check(obj, dict), "dialogue_id", str), get(obj, "turn_index", int), get(obj, "text", str)


def _load_agent_texts(path: str | None, dialogues: list[Dialogue]) -> None:
    """Replace agent transcripts in ``dialogues`` by the texts of the NDJSON
    file ``path``. Every line is parsed first; then each must name an agent
    turn of ``dialogues``."""
    if not path:
        return
    lines = list(jsonio.read_lines(path, _agent_text))
    agent_turns = {(dlg.id, turn.index): turn for dlg in dialogues for turn in dlg.turns if turn.speaker is Speaker.AGENT}
    first_line: dict[tuple[str, int], int] = {}
    for line_no, (dialogue_id, turn_index, text) in lines:
        key = (dialogue_id, turn_index)
        if key not in agent_turns:
            raise JsonInputError(f"{path}:{line_no}: dialogue {dialogue_id!r} has no agent turn {turn_index}")
        if key in first_line:
            reason = f"repeated text for dialogue {dialogue_id!r} turn {turn_index}, first on line {first_line[key]}"
            raise JsonInputError(f"{path}:{line_no}: {reason}")
        first_line[key] = line_no
        agent_turns[key].transcript = text


class _Main(click.Group):
    """The group whose ``invoke`` is the one place a command's failure on its
    data or the OS becomes its exit: one ``Error:`` line and exit 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (CorpusFormatError, JsonInputError, TrainingDivergence) as exc:
            raise click.ClickException(str(exc)) from exc
        except OSError as exc:
            if exc.errno == errno.EPIPE:  # click exits quietly when stdout's reader has gone
                raise
            where = "" if exc.filename is None else f"{exc.filename}: "
            raise click.ClickException(where + (exc.strerror or str(exc))) from exc


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="dst-lab")
@click.pass_context
def main(ctx: click.Context) -> None:
    """Spoken-dialog context management lab: synthesis, runs, and evaluation."""
    _configure_logging()
    # a command builds many long-lived objects and no cycles that grow with its input, so the
    # cycle collector is paused until the command's context closes, however it ends
    if gc.isenabled():
        gc.disable()
        ctx.call_on_close(gc.enable)


@main.command("synth")
@click.option("--seed", type=int, default=0, show_default=True, help="Corpus seed.")
@click.option("--n-dialogues", type=int, default=8, show_default=True)
@click.option("--turns-per-dialogue", type=int, default=8, show_default=True)
@click.option("--feature-dim", type=int, default=16, show_default=True)
@click.option("--slots-per-dialogue", type=int, default=4, show_default=True)
@click.option("--noise-sigma", type=float, default=0.0, show_default=True)
@click.option(
    "--mentions-per-turn",
    type=int,
    default=None,
    help="Force every user turn to mention this many pairs (uniform-length turns).",
)
@click.option("--fixed-domain", type=str, default=None, help="Use one domain for every dialogue.")
@click.option("--frames-per-token", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Output corpus directory.")
def cmd_synth(seed: int, out: str, **flags) -> None:
    """Generate a synthetic corpus with feature sidecars."""
    if error := seed_error(seed):
        raise click.BadParameter(error, param_hint="--seed")
    # every other flag names a SynthConfig field
    config = _validated(SynthConfig(**flags))
    _check_out(out, directory=True)
    dialogues = synth_corpus(seed, config)
    path = write_corpus(
        out,
        dialogues,
        taxonomy=synthetic_taxonomy(),
        meta={"seed": seed, "config": asdict(config)},
    )
    click.echo(f"wrote {len(dialogues)} dialogues to {path}")


@main.command("run")
@click.option("--manifest", type=click.Path(exists=True), default=None, help="Run manifest JSON; flags override fields.")
@click.option("--corpus", type=click.Path(), default=None, help="Corpus path (file or directory).")
@click.option("--format", type=click.Choice(_FORMATS), default=None)
@click.option("--strategy", type=click.Choice(sorted(_STRATEGY_ALIASES)), default=None)
@click.option("--predictor", type=click.Choice(_PREDICTORS), default=None)
@click.option("--seed", type=int, default=None, help="Seed for predictor noise and parameter init.")
@click.option("--n-queries", type=int, default=None, help="Compressor query count.")
@click.option("--compress-current/--no-compress-current", default=None, help="Also compress the current turn (ablation).")
@click.option("--exclude-ids", type=str, default=None, help="Comma-separated ids or a JSON file; defaults to the packaged list.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--workers", type=int, default=None, help="Parallel dialogue workers, capped at usable CPUs and dialogues.")
@click.option("--budget-rows", type=int, default=None, help="Row budget for the truncated predictor.")
@click.option("--agent-asr", type=click.Path(exists=True), default=None, help="NDJSON sidecar of agent-turn ASR texts for multimodal history.")
def cmd_run(manifest: str | None, exclude_ids: str | None, **flags) -> None:
    """Run a predictor over a corpus and write NDJSON predictions."""
    if manifest:
        run_manifest = RunManifest.from_file(manifest)
    elif not flags["corpus"] or not flags["strategy"]:
        raise click.UsageError("--corpus and --strategy are required without --manifest")
    else:
        run_manifest = RunManifest(corpus=flags["corpus"], strategy=flags["strategy"])
    # every other flag names the manifest field it overrides
    run_manifest = replace(run_manifest, **{key: value for key, value in flags.items() if value is not None})
    if exclude_ids is not None or not run_manifest.exclude_ids:
        run_manifest.exclude_ids = _parse_exclude_ids(exclude_ids)

    run_manifest.check_ranges()
    strategy_enum = _STRATEGY_ALIASES[run_manifest.strategy.lower()]
    excluded = set(run_manifest.exclude_ids)

    def read(dialogue: Dialogue) -> list[int]:
        return [] if dialogue.id in excluded else read_turns(strategy_enum, dialogue)

    dialogues = load_corpus(run_manifest.corpus, run_manifest.format, read)
    _load_agent_texts(run_manifest.agent_asr, dialogues)
    dialogues = filter_corrupted(dialogues, run_manifest.exclude_ids)
    if not dialogues:
        raise click.ClickException("no dialogues left after filtering")
    d_feat = _feature_dim(dialogues)
    embedder, config = _build_embedder(run_manifest, d_feat)
    compressor = build_compressor(config) if strategy_enum is Strategy.COMPRESSED_SPOKEN else None
    predictor_obj = make_predictor(
        run_manifest.predictor,
        seed=run_manifest.seed,
        budget_rows=run_manifest.budget_rows,
        drop_prob=run_manifest.drop_prob,
        typo_prob=run_manifest.typo_prob,
        insert_prob=run_manifest.insert_prob,
        time_reformat_prob=run_manifest.time_reformat_prob,
    )

    # outcomes come back in dialogue-id order, each dialogue's results in turn order
    dialogues.sort(key=lambda d: d.id)

    def work(i: int) -> list | str:
        """Dialogue ``i``'s turn results, or its failure: the other dialogues still run."""
        try:
            return run_dialogue(
                dialogues[i], strategy_enum, predictor_obj, embedder, compressor,
                compress_current=run_manifest.compress_current,
            )
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    # a dialogue can end the process it runs in, so with a pool none runs in this one; a
    # dialogue whose worker was lost twice has that exception as its outcome
    costs = [len(d.turns) for d in dialogues]
    outcomes = share_out(work, list(range(len(dialogues))), costs, run_manifest.workers, isolated=True)
    outcomes = [f"{type(o).__name__}: {o}" if isinstance(o, Exception) else o for o in outcomes]
    failures = [{"dialogue_id": d.id, "error": o} for d, o in zip(dialogues, outcomes) if isinstance(o, str)]
    results = [[] if isinstance(o, str) else o for o in outcomes]
    records = [
        PredictionRecord(d.id, r.turn_index, r.raw_output, r.parsed_state, r.diagnostics)
        for d, turn_results in zip(dialogues, results)
        for r in turn_results
    ]

    # a failed dialogue has no turn results, so only the dialogues that succeeded count
    length_rows = context_length_report(strategy_enum, run_manifest.n_queries, [r for rs in results for r in rs])
    summary = {
        "n_dialogues": len(dialogues),
        "n_records": len(records),
        "failures": failures,
        "manifest": asdict(run_manifest),
    }
    texts = {
        "context_lengths.csv": render_context_lengths(length_rows),
        "run_summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }
    out_dir = Path(run_manifest.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # the predictions stream into it
    write_predictions(out_dir / "predictions.ndjson", records)
    write_files(out_dir, texts)
    click.echo(f"wrote {len(records)} prediction records to {out_dir / 'predictions.ndjson'}")
    if len(failures) == len(dialogues):
        raise click.ClickException(f"every dialogue failed; see {out_dir / 'run_summary.json'}")
    if failures:
        click.echo(f"{len(failures)} dialogue(s) failed; see run_summary.json", err=True)


@main.command("evaluate")
@click.option("--predictions", type=click.Path(exists=True), required=True, help="NDJSON prediction file.")
@click.option("--corpus", type=click.Path(exists=True), required=True, help="Reference corpus path.")
@click.option("--format", "format_", type=click.Choice(_FORMATS), default="synthetic_json", show_default=True)
@click.option("--policy", type=str, default="standard", show_default=True, help="'standard', 'exact', or a policy JSON file.")
@click.option("--exclude-ids", type=str, default=None, help="Comma-separated ids or a JSON file; defaults to the packaged list.")
@click.option("--out", type=click.Path(), default=None, help="Report output directory.")
@click.option("--top-k-errors", type=click.IntRange(min=0), default=6, show_default=True)
def cmd_evaluate(
    predictions: str,
    corpus: str,
    format_: str,
    policy: str,
    exclude_ids: str | None,
    out: str | None,
    top_k_errors: int,
) -> None:
    """Score predictions against gold states; print JGA with and without post-processing."""
    if out:
        _check_out(out, directory=True)
    records = read_predictions(predictions)
    # scoring reads gold states only, so no feature sidecar is loaded
    dialogues, taxonomy = parse_corpus(corpus, format_)
    references = references_from_corpus(filter_corrupted(dialogues, _parse_exclude_ids(exclude_ids)))
    if format_ == "synthetic_json":
        taxonomy = taxonomy or synthetic_taxonomy()
    policy_obj = load_policy(policy)
    if not references:
        raise click.ClickException(f"no reference turn to score in {corpus}")
    try:
        report = evaluate(
            states_from_records(records),
            references,
            policy_obj,
            taxonomy,
            top_k_errors,
        )
    except AlignmentError as exc:
        click.echo(f"alignment failure: {predictions} against {corpus}: {exc}", err=True)
        sys.exit(2)
    except UnclassifiedSlotError as exc:
        domain, slot = exc.slot
        raise click.ClickException(
            f"gold slot ({domain}, {slot}) in {corpus} is not classified by the taxonomy"
        ) from exc
    click.echo(f"JGA (exact match):     {report.jga:.4f}")
    click.echo(f"JGA (post-processed):  {report.jga_post:.4f}")
    click.echo(f"domain-set accuracy:   {report.domain_accuracy:.4f}")
    if out:
        written = render_report(report, out)
        click.echo(f"wrote {len(written)} report files to {out}")


@main.command("gradcheck")
@click.option("--eps", type=float, default=1e-5, show_default=True)
@click.option("--threshold", type=float, default=1e-4, show_default=True)
def cmd_gradcheck(eps: float, threshold: float) -> None:
    """Verify analytic gradients against central finite differences."""
    if not (math.isfinite(eps) and eps > 0):
        raise click.BadParameter(f"must be a positive finite number, got {eps}", param_hint="--eps")
    if not threshold > 0:
        raise click.BadParameter(f"must be positive, got {threshold}", param_hint="--threshold")
    results = grad_check_suite(eps=eps)
    failed = False
    for result in results:
        status = "PASS" if result.max_relative_error < threshold else "FAIL"
        if status == "FAIL":
            failed = True
        click.echo(
            f"{status} {result.module:<11} input={result.input_shape!s:<9} "
            f"max_rel_err={result.max_relative_error:.3e} worst={result.worst_param}"
        )
    if failed:
        raise SystemExit(1)


@main.command("probe")
@click.option("--n-queries", "n_queries_list", type=int, multiple=True, required=True, help="Query counts to probe; repeatable.")
@click.option("--seeds", type=str, default="0,1,2,3,4", show_default=True, help="Comma-separated corpus/training seeds.")
@click.option("--n-dialogues", type=int, default=60, show_default=True)
@click.option("--turns-per-dialogue", type=int, default=10, show_default=True)
@click.option("--feature-dim", type=int, default=16, show_default=True)
@click.option("--noise-sigma", type=float, default=0.5, show_default=True)
@click.option("--slots-per-dialogue", type=int, default=4, show_default=True)
@click.option("--fixed-domain", type=str, default="hotel", show_default=True)
@click.option("--lr", type=float, default=0.2, show_default=True)
@click.option("--epochs", type=int, default=600, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Retention CSV path.")
def cmd_probe(
    n_queries_list: tuple[int, ...], seeds: str, lr: float, epochs: int, out: str, **flags
) -> None:
    """Slot-recovery accuracy as a function of compressor query count."""
    try:
        seed_values = [int(s) for s in seeds.split(",") if s.strip()]
    except ValueError:
        raise click.BadParameter(
            f"expected comma-separated integers, got {seeds!r}", param_hint="--seeds"
        ) from None
    if not seed_values:
        raise click.BadParameter(f"expected at least one seed, got {seeds!r}", param_hint="--seeds")
    for n_queries in n_queries_list:
        _require_size(n_queries, "--n-queries")
    # a repeated value would train the same config twice and write its row twice
    _require_distinct(seed_values, "--seeds")
    _require_distinct(n_queries_list, "--n-queries")
    # every other flag names a SynthConfig field; each turn restates every slot
    config = _validated(SynthConfig(mentions_per_turn=flags["slots_per_dialogue"], **flags))
    if config.n_dialogues < 2:
        raise click.BadParameter(
            f"must be >= 2 so that a dialogue is held out, got {config.n_dialogues}", param_hint="--n-dialogues"
        )
    hypers = [_validated(ProbeHyper(lr=lr, epochs=epochs, seed=seed)) for seed in seed_values]
    _check_out(out, directory=False)
    runs = [(synth_corpus(hyper.seed, config), list(n_queries_list), hyper) for hyper in hypers]
    accuracies = probe_runs(runs)
    rows = [(hyper.seed, n, acc[n]) for (_, _, hyper), acc in zip(runs, accuracies) for n in n_queries_list]
    out_path = Path(out)
    write_files(out_path.parent, {out_path.name: render_retention_table(rows)})
    click.echo(f"wrote {len(rows)} probe rows to {out_path}")


if __name__ == "__main__":
    main()

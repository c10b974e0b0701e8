"""Job files written before an option was retired still serve."""

import json

import pytest

from repro import SearchOptions, run_search
from repro.service import JobStore
from repro.service.jobs import serve

from .conftest import FIG3_SRC

FIG3_DESCRIPTION = {
    "program": "fig3.rc",
    "close": {"env_params": {"q": ["x"]}},
    "objects": [{"kind": "sink", "name": "out"}],
    "processes": [{"name": "P", "proc": "q", "args": []}],
}


def _submit_with(store, **old_options):
    options = SearchOptions(
        strategy="parallel", scheduler="steal", jobs=1, count_states=True, max_depth=60
    )
    job = store.submit(FIG3_DESCRIPTION, options, program_source=FIG3_SRC)
    # Older versions wrote every option, the retired ones included.
    doc = json.loads(job.job_path.read_text())
    doc["options"].update(old_options)
    job.job_path.write_text(json.dumps(doc))
    return job


@pytest.mark.parametrize("key, value", [("prefix_depth", 2), ("cache_bits", 24)])
def test_job_file_with_retired_option_serves(tmp_path, key, value):
    store = JobStore(tmp_path)
    job = _submit_with(store, **{key: value})

    assert serve(store, once=True) == 1
    job = store.get(job.id)
    assert job.state == "done", job.error
    result = json.loads(job.result_path.read_text())
    direct = run_search(
        job.build_system(), SearchOptions(count_states=True, max_depth=60)
    )
    assert result["summary"] == direct.summary()
    assert result["distinct_states"] == direct.distinct_states


def test_job_with_retired_bitstate_cache_fails_cleanly(tmp_path):
    # The store kind is a value, not a key: an old job that asked for
    # the bitstate store fails with the validation message.
    store = JobStore(tmp_path)
    job = _submit_with(store, state_cache="bitstate", cache_bits=20)

    assert serve(store, once=True) == 1
    job = store.get(job.id)
    assert job.state == "failed"
    assert "unknown state cache" in job.error
    assert "Traceback" not in job.error

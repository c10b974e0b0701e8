"""Job files written before an option was retired still serve."""

import json

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


def test_job_file_with_retired_prefix_depth_serves(tmp_path):
    store = JobStore(tmp_path)
    options = SearchOptions(
        strategy="parallel", scheduler="steal", jobs=1, count_states=True, max_depth=60
    )
    job = store.submit(FIG3_DESCRIPTION, options, program_source=FIG3_SRC)
    # Older versions wrote every option, this one included.
    doc = json.loads(job.job_path.read_text())
    doc["options"]["prefix_depth"] = 2
    job.job_path.write_text(json.dumps(doc))

    assert serve(store, once=True) == 1
    job = store.get(job.id)
    assert job.state == "done", job.error
    result = json.loads(job.result_path.read_text())
    direct = run_search(
        job.build_system(), SearchOptions(count_states=True, max_depth=60)
    )
    assert result["summary"] == direct.summary()
    assert result["distinct_states"] == direct.distinct_states

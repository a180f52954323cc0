import json

import pytest

from fusionkit.chat import (
    ChatRequest,
    ReplayChatClient,
    ReplayMissError,
    TransientChatError,
    store_replay,
)
from fusionkit.driving_eval import NormalizedBox
from fusionkit.risk_qa import (
    QA_CATEGORIES,
    REPAIR_INSTRUCTION,
    PipelineConfig,
    QaPair,
    RiskAssessmentDoc,
    RiskEntry,
    RiskSchemaError,
    Scene,
    SceneObject,
    build_qa_prompt,
    build_risk_prompt,
    categorize_qa,
    derive_grounding_targets,
    parse_qa_response,
    parse_risk_response,
    run_pipeline,
)

# Golden prompt for the seven-car fixture scene, frozen byte-for-byte.
# The odd "analysis.Please" spacing is part of the template.
RISK_PROMPT_GOLDEN = (
    "The image is from the front view camera of ego vehicle, and please "
    "provide a risk assessment of the given object to ego vehicle. The "
    "driving risk categories include: 1. View obstruction. 2. Collision "
    "possibility. 3. Traffic rule violations. 4. Potential risk. You are "
    "now a driver, and from the perspective of driving safety, you need to "
    "conduct a driving risk analysis.Please consider the state of the "
    "target when analyzing, e.g. Whether the vehicle is stationary, whether "
    "pedestrians are crossing the road, whether it is in the same lane as "
    "ego vehicle, etc. The current scene contains the following objects: "
    "[the car located 26 meters ahead to the right; "
    "the car located 26 meters ahead to the right; "
    "the car located 26 meters ahead to the left; "
    "the car located 16 meters ahead to the left; "
    "the car located 26 meters ahead to the left; "
    "the car located 26 meters ahead to the right; "
    "the car located 23 meters ahead]. "
    "Choose the object you believe poses a risk and provide your reasons. "
    "If all risks of object are None, ignore this object! If some risk is "
    "None, do not output all context relate to this risk! Answer in the "
    "following format without providing additional information:\n"
    """{
    "[obj]": {
        "View obstruction": {
            "Status": "[High/Medium/Low/None]",
            "Reason": "[Reason]"
        },
        "Collision possibility": {
            "Status": "[High/Medium/Low/None]",
            "Reason": "[Reason]"
        },
        ...
        },
    "[obj]": {
        ...
    },
    ...
}"""
)

# Golden prompt for the parked-car doc, frozen byte-for-byte.
QA_PROMPT_GOLDEN = (
    "This is a description of object-level traffic risks: "
    "1. car causes low view obstruction risk due to the car is parked on "
    "the side of the road and does not obstruct the view of the ego "
    "vehicle. "
    "2. car causes low collision possibility risk due to the car is "
    "stationary and parked on the side of the road, not in the path of "
    "the ego vehicle. "
    "Please generate multiple Q&A pairs about traffic risks based on this "
    "information and output them in JSON format as follows:\n"
    """ [
     {
        "question": [question1],
        "answer": [answer1]},
     {
        "question": [question2],
        "answer": [answer2]
     },
     ...
 ]"""
)

RISK_RESPONSE_FIXTURE = """{
    "the car located 16 meters ahead to the left": {
        "Collision possibility": {
            "Status": "High",
            "Reason": "It is in the turning path of the ego vehicle and poses a risk of collision."
        },
        "Potential risk": {
            "Status": "High",
            "Reason": "Being in close proximity and suggesting movement or turning, it presents a potential risk."
        }
    }
}"""

QA_RESPONSE_FIXTURE = json.dumps(
    [
        {
            "question": "What type of traffic risk is presented by a parked "
            "car on the side of the road?",
            "answer": "The parked car presents a low view obstruction risk "
            "to the ego vehicle as it does not obstruct their view.",
        },
        {
            "question": "Does a stationary parked car cause a risk of "
            "collision for the ego vehicle?",
            "answer": "No, the stationary parked car causes a low collision "
            "possibility risk because it is not in the path of the ego "
            "vehicle.",
        },
        {
            "question": "How does a parked car affect the view of the ego "
            "vehicle?",
            "answer": "A parked car causes low view obstruction risk, "
            "meaning it does not significantly obstruct the view of the ego "
            "vehicle.",
        },
        {
            "question": "Why is the collision risk low when a car is parked "
            "on the side of the road?",
            "answer": "The collision risk is low because the car is "
            "stationary and not in the path of the ego vehicle.",
        },
        {
            "question": "What factors contribute to the low collision risk "
            "of a parked vehicle?",
            "answer": "The main factors are that the car is stationary and "
            "parked on the side of the road, thus not interfering with the "
            "ego vehicle's path.",
        },
        {
            "question": "Can a parked car pose any significant risks to "
            "traffic safety?",
            "answer": "Generally, a parked car poses low risks such as low "
            "view obstruction and low collision possibility for actively "
            "moving vehicles.",
        },
    ],
    indent=2,
)

EXPECTED_CATEGORIES = ["category", "exist", "object", "level", "level", "exist"]


def seven_car_scene():
    bearings = [
        ("ahead_right", 26, None),
        ("ahead_right", 26, None),
        ("ahead_left", 26, None),
        ("ahead_left", 16, NormalizedBox(380, 420, 520, 610)),
        ("ahead_left", 26, None),
        ("ahead_right", 26, None),
        ("ahead", 23, None),
    ]
    objects = tuple(
        SceneObject(category="car", bearing=b, distance=d, view="front", box=box)
        for b, d, box in bearings
    )
    return Scene(scene_id="scene-0001", objects=objects)


def parked_car_doc():
    return RiskAssessmentDoc(
        objects={
            "car": {
                "View obstruction": RiskEntry(
                    "Low",
                    "the car is parked on the side of the road and does not "
                    "obstruct the view of the ego vehicle",
                ),
                "Collision possibility": RiskEntry(
                    "Low",
                    "the car is stationary and parked on the side of the "
                    "road, not in the path of the ego vehicle",
                ),
            }
        }
    )


# ----------------------------------------------------------------- prompts


def test_risk_prompt_golden():
    assert build_risk_prompt(seven_car_scene().objects) == RISK_PROMPT_GOLDEN


def test_risk_prompt_single_object():
    obj = SceneObject("pedestrian", "behind", 5)
    prompt = build_risk_prompt([obj])
    assert "objects: [the pedestrian located 5 meters behind]." in prompt
    with pytest.raises(ValueError):
        build_risk_prompt([])


def test_qa_prompt_golden():
    assert build_qa_prompt(parked_car_doc()) == QA_PROMPT_GOLDEN


def test_qa_prompt_single_risk():
    doc = RiskAssessmentDoc(
        objects={"truck": {"Potential risk": RiskEntry("High", "it may merge.")}}
    )
    prompt = build_qa_prompt(doc)
    assert "risks: 1. truck causes high potential risk risk due to it may merge. " in prompt
    assert "2." not in prompt.split("\n")[0]
    with pytest.raises(ValueError):
        build_qa_prompt(RiskAssessmentDoc(objects={}))


def test_prompts_are_pure():
    scene = seven_car_scene()
    assert build_risk_prompt(scene.objects) == build_risk_prompt(scene.objects)
    assert build_qa_prompt(parked_car_doc()) == build_qa_prompt(parked_car_doc())


def test_scene_object_validation():
    with pytest.raises(ValueError):
        SceneObject("car", "port", 10)
    with pytest.raises(ValueError):
        SceneObject("car", "ahead", -1)
    with pytest.raises(ValueError):
        SceneObject("car", "ahead", 10, view="rooftop")
    assert SceneObject("bus", "left", 7).phrase() == "the bus located 7 meters to the left"


# ------------------------------------------------------------ risk parsing


def test_parse_risk_fixture():
    doc = parse_risk_response(RISK_RESPONSE_FIXTURE)
    assert list(doc.objects) == ["the car located 16 meters ahead to the left"]
    risks = doc.objects["the car located 16 meters ahead to the left"]
    assert set(risks) == {"Collision possibility", "Potential risk"}
    assert risks["Collision possibility"].status == "High"
    assert risks["Potential risk"].status == "High"
    assert doc.high_risk_phrases() == [
        "the car located 16 meters ahead to the left"
    ]


def test_parse_risk_empty_object():
    assert parse_risk_response("{}").is_empty


def test_parse_risk_drops_none_entries():
    text = json.dumps(
        {
            "the car located 9 meters ahead": {
                "View obstruction": {"Status": "None", "Reason": "n/a"},
                "Potential risk": {"Status": "Low", "Reason": "slow traffic"},
            },
            "the cone located 2 meters ahead": {
                "View obstruction": {"Status": "None", "Reason": ""},
            },
        }
    )
    doc = parse_risk_response(text)
    assert list(doc.objects) == ["the car located 9 meters ahead"]
    assert list(doc.objects["the car located 9 meters ahead"]) == ["Potential risk"]


def test_parse_risk_tolerates_code_fences():
    fenced = "Sure, here it is:\n```json\n" + RISK_RESPONSE_FIXTURE + "\n```"
    doc = parse_risk_response(fenced)
    assert not doc.is_empty


def test_parse_risk_schema_errors_carry_paths():
    with pytest.raises(RiskSchemaError) as err:
        parse_risk_response("no json here")
    assert err.value.path == "$"

    with pytest.raises(RiskSchemaError) as err:
        parse_risk_response(json.dumps({"car": {"Wrong type": {"Status": "Low",
                                                               "Reason": "x"}}}))
    assert err.value.path == "$.car.Wrong type"

    with pytest.raises(RiskSchemaError) as err:
        parse_risk_response(
            json.dumps({"car": {"Potential risk": {"Status": "Severe",
                                                   "Reason": "x"}}})
        )
    assert err.value.path == "$.car.Potential risk.Status"

    with pytest.raises(RiskSchemaError) as err:
        parse_risk_response(
            json.dumps({"car": {"Potential risk": {"Status": "Low",
                                                   "Reason": "  "}}})
        )
    assert err.value.path == "$.car.Potential risk.Reason"


def test_parse_risk_round_trips_serialized_docs():
    doc = parse_risk_response(RISK_RESPONSE_FIXTURE)
    serialized = json.dumps(
        {
            phrase: {
                rtype: {"Status": e.status, "Reason": e.reason}
                for rtype, e in risks.items()
            }
            for phrase, risks in doc.objects.items()
        }
    )
    assert parse_risk_response(serialized) == doc


# -------------------------------------------------------------- qa parsing


def test_parse_qa_fixture():
    pairs = parse_qa_response(QA_RESPONSE_FIXTURE, scene_id="s")
    assert len(pairs) == 6
    assert pairs[0].question.startswith("What type of traffic risk")
    assert pairs[5].answer.endswith("actively moving vehicles.")
    assert all(p.scene_id == "s" and p.qa_category is None for p in pairs)


def test_parse_qa_empty_array():
    assert parse_qa_response("[]") == []


def test_parse_qa_errors_name_index():
    bad = json.dumps([{"question": "ok?", "answer": "yes"},
                      {"question": "hm?", "answer": ""}])
    with pytest.raises(RiskSchemaError) as err:
        parse_qa_response(bad)
    assert err.value.path == "$.1.answer"

    with pytest.raises(RiskSchemaError) as err:
        parse_qa_response(json.dumps(["just a string"]))
    assert err.value.path == "$.0"

    with pytest.raises(RiskSchemaError):
        parse_qa_response(json.dumps({"not": "an array"}))


# ---------------------------------------------------------- categorization


def test_categorize_fixture_pairs():
    pairs = parse_qa_response(QA_RESPONSE_FIXTURE)
    doc = parked_car_doc()
    got = [categorize_qa(p, doc).qa_category for p in pairs]
    assert got == EXPECTED_CATEGORIES


def test_categorize_grounding_markers():
    for q in (
        "Where is the object causing the highest risk?",
        "Please locate the risky vehicle.",
        "Give the location of the hazard.",
        "Mark it: <box>(1,2),(3,4)</box>",
    ):
        pair = QaPair(question=q, answer="a")
        assert categorize_qa(pair).qa_category == "grounding"


def test_categorize_cascade_order():
    # exist beats level/category when a yes-no risk question mentions both
    q = QaPair(question="Is there a high collision possibility risk?", answer="x")
    assert categorize_qa(q).qa_category == "exist"
    # level beats category
    q = QaPair(question="The collision possibility risk is low or high?",
               answer="x")
    assert categorize_qa(q).qa_category == "level"
    # object falls back to doc-derived nouns
    doc = RiskAssessmentDoc(
        objects={
            "the excavator located 12 meters ahead": {
                "Potential risk": RiskEntry("High", "digging near the lane")
            }
        }
    )
    q = QaPair(question="What should the driver watch regarding the excavator?",
               answer="x")
    assert categorize_qa(q, doc).qa_category == "object"
    # nothing matches: reason
    q = QaPair(question="Why is that so?", answer="x")
    assert categorize_qa(q).qa_category == "reason"


def test_categorize_assigns_only_known_categories():
    # one question per branch of the cascade, plus one whose object noun
    # only the doc supplies, each with and without a doc
    doc = RiskAssessmentDoc(objects={"the excavator located 12 meters ahead": {
        "Potential risk": RiskEntry("High", "digging near the lane")}})
    questions = (
        "Where is the car?",
        "Is there any risk ahead?",
        "How high is the danger?",
        "What type of risk does it pose?",
        "What is the truck doing?",
        "What is the excavator doing?",
        "Why slow down?",
    )
    seen = set()
    for q in questions:
        for d in (None, doc):
            category = categorize_qa(QaPair(question=q, answer="a"), d).qa_category
            assert category in QA_CATEGORIES
            seen.add(category)
    assert seen == set(QA_CATEGORIES)


def test_categorize_is_total():
    pairs = parse_qa_response(QA_RESPONSE_FIXTURE)
    for pair in pairs:
        assert categorize_qa(pair).qa_category is not None


# -------------------------------------------------------------- grounding


def test_grounding_targets_from_fixture_doc():
    scene = seven_car_scene()
    doc = parse_risk_response(RISK_RESPONSE_FIXTURE)
    targets, unmatched = derive_grounding_targets(doc, scene.objects,
                                                  scene_id=scene.scene_id)
    assert unmatched == []
    assert len(targets) == 1
    assert targets[0].box == NormalizedBox(380, 420, 520, 610)
    assert targets[0].view == "front"
    assert targets[0].scene_id == "scene-0001"


def test_grounding_requires_high_status():
    doc = parked_car_doc()  # both risks Low
    targets, unmatched = derive_grounding_targets(doc, seven_car_scene().objects)
    assert targets == [] and unmatched == []


def test_grounding_unmatched_reported():
    doc = parse_risk_response(RISK_RESPONSE_FIXTURE)
    targets, unmatched = derive_grounding_targets(doc, [])
    assert targets == []
    assert unmatched == ["the car located 16 meters ahead to the left"]


# ---------------------------------------------------------------- pipeline


def _seed_replay(tmp_path, cfg, scene, risk_reply, qa_reply):
    step1 = ChatRequest(
        model=cfg.step1_model,
        messages=({"role": "user", "content": build_risk_prompt(scene.objects)},),
        temperature=cfg.temperature,
        seed=cfg.seed,
    )
    store_replay(tmp_path, step1, risk_reply)
    try:
        doc = parse_risk_response(risk_reply)
    except RiskSchemaError:
        return step1  # caller seeds the repair hop itself
    if not doc.is_empty:
        step2 = ChatRequest(
            model=cfg.step2_model,
            messages=({"role": "user", "content": build_qa_prompt(doc)},),
            temperature=cfg.temperature,
            seed=cfg.seed,
        )
        store_replay(tmp_path, step2, qa_reply)
    return step1


def test_pipeline_replay_end_to_end(tmp_path):
    cfg = PipelineConfig()
    scene = seven_car_scene()
    _seed_replay(tmp_path, cfg, scene, RISK_RESPONSE_FIXTURE, QA_RESPONSE_FIXTURE)
    client = ReplayChatClient(tmp_path)

    pairs, targets, report = run_pipeline([scene], client, cfg)
    assert [p.qa_category for p in pairs] == EXPECTED_CATEGORIES
    assert len(targets) == 1 and targets[0].box == NormalizedBox(380, 420, 520, 610)
    assert report.scenes_processed == 1
    assert report.scenes_failed == []
    assert report.retries == 0
    assert report.pairs_per_category == {
        "category": 1, "exist": 2, "object": 1, "level": 2
    }
    assert report.grounding_targets == 1
    assert report.unmatched_grounding == 0

    # byte-for-byte determinism of a rerun
    pairs2, targets2, report2 = run_pipeline([scene], client, cfg)
    assert pairs2 == pairs and targets2 == targets
    assert report2.to_dict() == report.to_dict()


def test_pipeline_retry_with_repair(tmp_path):
    cfg = PipelineConfig()
    scene = seven_car_scene()
    step1 = _seed_replay(tmp_path, cfg, scene, "garbage, not json",
                         QA_RESPONSE_FIXTURE)
    # the repair conversation gets the valid reply
    repaired = step1.with_followup("garbage, not json", REPAIR_INSTRUCTION)
    store_replay(tmp_path, repaired, RISK_RESPONSE_FIXTURE)
    doc = parse_risk_response(RISK_RESPONSE_FIXTURE)
    step2 = ChatRequest(
        model=cfg.step2_model,
        messages=({"role": "user", "content": build_qa_prompt(doc)},),
        temperature=cfg.temperature,
        seed=cfg.seed,
    )
    store_replay(tmp_path, step2, QA_RESPONSE_FIXTURE)

    pairs, targets, report = run_pipeline([scene], ReplayChatClient(tmp_path), cfg)
    assert report.retries == 1
    assert report.scenes_failed == []
    assert len(pairs) == 6 and len(targets) == 1


def test_pipeline_failure_is_contained(tmp_path):
    cfg = PipelineConfig(retries=1)
    bad_scene = Scene("bad", (SceneObject("car", "ahead", 10),))
    good_scene = seven_car_scene()

    # bad scene: garbage at the original and at every repair hop
    step1 = ChatRequest(
        model=cfg.step1_model,
        messages=(
            {"role": "user", "content": build_risk_prompt(bad_scene.objects)},
        ),
        temperature=cfg.temperature,
        seed=cfg.seed,
    )
    store_replay(tmp_path, step1, "nope")
    store_replay(tmp_path, step1.with_followup("nope", REPAIR_INSTRUCTION),
                 "still nope")
    _seed_replay(tmp_path, cfg, good_scene, RISK_RESPONSE_FIXTURE,
                 QA_RESPONSE_FIXTURE)

    pairs, targets, report = run_pipeline(
        [bad_scene, good_scene], ReplayChatClient(tmp_path), cfg
    )
    assert report.scenes_failed == ["bad"]
    assert report.scenes_processed == 2
    assert len(pairs) == 6
    assert all(p.scene_id == "scene-0001" for p in pairs)


class _DeepFor:
    """Replies from ``replay``, except that every request about ``scene``
    gets an object nested past the parser's depth limit."""

    def __init__(self, replay: ReplayChatClient, scene: Scene) -> None:
        self.replay, self.prompt = replay, build_risk_prompt(scene.objects)

    def complete(self, request: ChatRequest) -> str:
        if request.messages[0]["content"] == self.prompt:
            return '{"objects": ' + "[" * 100_000 + "]" * 100_000 + "}"
        return self.replay.complete(request)


def test_reply_past_the_parsers_depth_fails_only_its_scene(tmp_path):
    cfg = PipelineConfig()
    deep = Scene("deep", (SceneObject("car", "ahead", 10),))
    good = seven_car_scene()
    _seed_replay(tmp_path, cfg, good, RISK_RESPONSE_FIXTURE, QA_RESPONSE_FIXTURE)
    replay = ReplayChatClient(tmp_path)
    alone = run_pipeline([good], replay, cfg)

    pairs, targets, report = run_pipeline([deep, good], _DeepFor(replay, deep), cfg)
    assert report.scenes_failed == ["deep"]
    assert "undecodable JSON" in report.failures["deep"]
    assert report.retries == cfg.retries
    assert (pairs, targets) == alone[:2] and pairs


class _AlwaysMalformed:
    def __init__(self) -> None:
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> str:
        self.requests.append(request)
        return "not json"


def test_failed_scene_counts_its_repairs_and_names_the_path_once():
    client = _AlwaysMalformed()
    report = run_pipeline([seven_car_scene()], client, PipelineConfig(retries=2))[2]
    assert len(client.requests) == 3
    assert report.retries == 2
    assert report.failures == {"scene-0001": (
        "still malformed after 2 repair attempts: "
        "no JSON '{' found in response (at $)")}


def test_pipeline_reports_failure_reasons(tmp_path):
    cfg = PipelineConfig()
    missing = Scene("missing", (SceneObject("car", "ahead", 10),))
    _seed_replay(tmp_path, cfg, seven_car_scene(), RISK_RESPONSE_FIXTURE,
                 QA_RESPONSE_FIXTURE)
    client = ReplayChatClient(tmp_path)
    with pytest.raises(ReplayMissError) as miss:
        client.complete(ChatRequest(
            model=cfg.step1_model,
            messages=({"role": "user",
                       "content": build_risk_prompt(missing.objects)},),
            temperature=cfg.temperature, seed=cfg.seed))
    assert not isinstance(miss.value, TransientChatError)

    report = run_pipeline([missing, seven_car_scene()], client, cfg)[2]
    assert report.scenes_failed == ["missing"]
    assert report.failures == {"missing": str(miss.value)}
    assert report.transport_retries == 0
    assert report.to_dict()["failures"] == report.failures


def test_pipeline_empty_inputs(tmp_path):
    pairs, targets, report = run_pipeline([], ReplayChatClient(tmp_path))
    assert pairs == [] and targets == []
    assert report.scenes_processed == 0 and report.scenes_failed == []


def test_pipeline_empty_doc_is_success(tmp_path):
    cfg = PipelineConfig()
    scene = Scene("quiet", (SceneObject("car", "behind", 40),))
    _seed_replay(tmp_path, cfg, scene, "{}", "unused")
    pairs, targets, report = run_pipeline([scene], ReplayChatClient(tmp_path), cfg)
    assert pairs == [] and targets == []
    assert report.scenes_failed == []


def test_pipeline_rejects_duplicate_scene_ids(tmp_path):
    scene = Scene("dup", (SceneObject("car", "ahead", 5),))
    with pytest.raises(ValueError, match="unique"):
        run_pipeline([scene, scene], ReplayChatClient(tmp_path))


def test_pipeline_parallel_matches_serial(tmp_path):
    cfg_serial = PipelineConfig(max_in_flight=1)
    cfg_par = PipelineConfig(max_in_flight=4)
    scenes = []
    for i in range(4):
        scene = Scene(
            f"scene-{i}",
            (
                SceneObject("car", "ahead_left", 16,
                            box=NormalizedBox(10 * i, 0, 10 * i + 50, 99)),
            ),
        )
        risk = json.dumps(
            {
                scene.objects[0].phrase(): {
                    "Potential risk": {"Status": "High", "Reason": f"reason {i}"}
                }
            }
        )
        qa = json.dumps(
            [{"question": f"Is there a risk in scene {i}?",
              "answer": f"Yes, scene {i} carries one."}]
        )
        _seed_replay(tmp_path, cfg_serial, scene, risk, qa)
        scenes.append(scene)

    client = ReplayChatClient(tmp_path)
    serial = run_pipeline(scenes, client, cfg_serial)
    parallel = run_pipeline(scenes, client, cfg_par)
    assert serial[0] == parallel[0]
    assert serial[1] == parallel[1]
    assert serial[2].to_dict() == parallel[2].to_dict()
    assert [p.scene_id for p in serial[0]] == [f"scene-{i}" for i in range(4)]

// Package swf reads and writes the Standard Workload Format used by the
// Parallel Workloads Archive, the source of the paper's Intrepid log. Only
// the fields the scheduler consumes are interpreted; the full 18-field
// record is preserved on round trips.
//
// Format: lines of 18 whitespace-separated numbers, one job per line;
// header comment lines start with ';'. See
// https://www.cs.huji.ac.il/labs/parallel/workload/swf.html.
package swf

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Job is one SWF record. Times are in seconds; -1 encodes "unknown"
// throughout, as in the archive.
type Job struct {
	ID           int
	Submit       int64 // seconds since log start
	Wait         int64
	Runtime      int64
	UsedProcs    int
	AvgCPUTime   float64
	UsedMemory   float64
	ReqProcs     int
	ReqTime      int64
	ReqMemory    float64
	Status       int
	UserID       int
	GroupID      int
	AppID        int
	QueueID      int
	PartitionID  int
	PrecedingJob int
	ThinkTime    int64
}

// Procs returns the effective processor count: requested if known,
// otherwise used.
func (j Job) Procs() int {
	if j.ReqProcs > 0 {
		return j.ReqProcs
	}
	return j.UsedProcs
}

// Log is a parsed SWF file.
type Log struct {
	// Header holds the raw header comment lines without the leading ';'.
	Header []string
	Jobs   []Job
}

// Read parses an SWF stream.
func Read(r io.Reader) (*Log, error) {
	log := &Log{}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			log.Header = append(log.Header, strings.TrimPrefix(line, ";"))
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 18 {
			return nil, fmt.Errorf("swf:%d: %d fields, want 18", lineNo, len(fields))
		}
		var nums [18]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("swf:%d: field %d: %v", lineNo, i+1, err)
			}
			nums[i] = v
		}
		log.Jobs = append(log.Jobs, Job{
			ID:           int(nums[0]),
			Submit:       int64(nums[1]),
			Wait:         int64(nums[2]),
			Runtime:      int64(nums[3]),
			UsedProcs:    int(nums[4]),
			AvgCPUTime:   nums[5],
			UsedMemory:   nums[6],
			ReqProcs:     int(nums[7]),
			ReqTime:      int64(nums[8]),
			ReqMemory:    nums[9],
			Status:       int(nums[10]),
			UserID:       int(nums[11]),
			GroupID:      int(nums[12]),
			AppID:        int(nums[13]),
			QueueID:      int(nums[14]),
			PartitionID:  int(nums[15]),
			PrecedingJob: int(nums[16]),
			ThinkTime:    int64(nums[17]),
		})
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

// Load reads an SWF file from disk.
func Load(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write renders the log in SWF syntax.
func (l *Log) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, h := range l.Header {
		fmt.Fprintf(bw, ";%s\n", h)
	}
	for _, j := range l.Jobs {
		fmt.Fprintf(bw, "%d %d %d %d %d %s %s %d %d %s %d %d %d %d %d %d %d %d\n",
			j.ID, j.Submit, j.Wait, j.Runtime, j.UsedProcs,
			num(j.AvgCPUTime), num(j.UsedMemory),
			j.ReqProcs, j.ReqTime, num(j.ReqMemory),
			j.Status, j.UserID, j.GroupID, j.AppID, j.QueueID,
			j.PartitionID, j.PrecedingJob, j.ThinkTime)
	}
	return bw.Flush()
}

// num formats a float compactly: integers without a decimal point.
func num(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
